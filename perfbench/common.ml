(* Helpers shared by the workloads. *)

module Strategies = Rc_core.Strategies
module Certify = Rc_check.Certify

let now () = Rc_core.Mclock.now_s ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Set-up is repeated [reps] times and its median reported, so that one
   slow start does not decide the metric; the last set-up is the one the
   run goes on with, the others are released by [discard]. *)
let repeated_setup ?(reps = 5) ~discard f =
  let rec go i acc =
    let dt, x = time f in
    if i + 1 < reps then begin
      discard x;
      go (i + 1) (dt :: acc)
    end
    else (Stats.median (dt :: acc), x)
  in
  go 0 []

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let self_peak_rss_mb () = peak_rss_mb "self"

(* What a strategy's answer claims, as the server certifies it: every
   conservative strategy claims a greedy-k-colorable merged graph;
   aggressive claims soundness only.  IRC may spill, so its answer is
   certified only when nothing spilled (see [solve_certifiable]). *)
let claims_for (s : Strategies.t) =
  match s with
  | Strategies.Aggressive -> []
  | _ -> [ Certify.Conservative ]

(* Solve [s] on [p] and certify the answer.  [Ok weight] when the
   answer certifies; [Error why] otherwise.  An IRC run that spilled
   answers a reduced instance, which the original problem cannot
   certify: that is reported as an error too, so it shows. *)
let solve_certified ?(cfg = Strategies.default_config) s p =
  let sol =
    match s with
    | Strategies.Irc rule ->
        let r = Rc_core.Irc.allocate ~rule p in
        if r.spilled = [] then Ok r.solution
        else
          Error
            (Printf.sprintf "%s spilled %d vertices" (Strategies.name s)
               (List.length r.spilled))
    | _ -> Ok (Strategies.run_cfg cfg s p)
  in
  match sol with
  | Error _ as e -> e
  | Ok sol ->
      let report = Certify.certify_solution ~claims:(claims_for s) p sol in
      if Certify.ok report then Ok sol
      else
        Error
          (Format.asprintf "%s: %a" (Strategies.name s) Certify.pp_report
             report)

let strategy_of_token t =
  match Strategies.of_string t with
  | Ok s -> s
  | Error m -> invalid_arg m

let fraction num den = if den = 0 then 1. else float_of_int num /. float_of_int den
