(* Order statistics for the benchmark's reports.  [percentile]
   interpolates linearly between closest ranks (the numpy "linear"
   rule), so p50 of an even-sized sample is the mean of the two middle
   values.  Run-to-run spreads are computed by perfbench/spread.py. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile xs p =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let r = p /. 100. *. float_of_int (n - 1) in
      let lo = truncate r in
      let hi = min (n - 1) (lo + 1) in
      let frac = r -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0. xs
