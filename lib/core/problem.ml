module Graph = Rc_graph.Graph
module Flat = Rc_graph.Flat

type affinity = { u : Graph.vertex; v : Graph.vertex; weight : int }

type memo = Flat.t option Atomic.t

type t = { graph : Graph.t; affinities : affinity list; k : int; memo : memo }

let unchecked ~graph ~affinities ~k =
  { graph; affinities; k; memo = Atomic.make None }

(* Two domains racing on the first call may both build; the first
   to publish wins and the loser's equal copy is dropped, so every
   caller afterwards reads the same kernel. *)
let kernel t =
  match Atomic.get t.memo with
  | Some f -> f
  | None -> (
      let f = Flat.of_graph t.graph in
      if Atomic.compare_and_set t.memo None (Some f) then f
      else match Atomic.get t.memo with Some f -> f | None -> assert false)

let greedy_k_colorable t =
  Rc_graph.Greedy_k.flat_is_greedy_k_colorable_readonly (kernel t) t.k

let flat ?rows t =
  match rows with
  | None | Some Flat.Auto -> Flat.copy (kernel t)
  | Some rows -> Flat.compact ~rows (kernel t)

let normalize_affinities raw =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((u, v), w) ->
      if u <> v then begin
        let key = (min u v, max u v) in
        let cur = match Hashtbl.find_opt tbl key with Some x -> x | None -> 0 in
        Hashtbl.replace tbl key (cur + w)
      end)
    raw;
  Hashtbl.fold (fun (u, v) weight acc -> { u; v; weight } :: acc) tbl []
  |> List.sort compare

let make ~graph ~affinities ~k =
  if k <= 0 then invalid_arg "Problem.make: k must be positive";
  List.iter
    (fun ((u, v), w) ->
      if w < 0 then invalid_arg "Problem.make: negative affinity weight";
      if not (Graph.mem_vertex graph u && Graph.mem_vertex graph v) then
        invalid_arg
          (Printf.sprintf "Problem.make: affinity (%d, %d) endpoint not in graph" u v))
    affinities;
  unchecked ~graph ~affinities:(normalize_affinities affinities) ~k

type error =
  | Nonpositive_k of int
  | Self_affinity of { v : Graph.vertex; weight : int }
  | Unordered_affinity of { u : Graph.vertex; v : Graph.vertex }
  | Negative_weight of { u : Graph.vertex; v : Graph.vertex; weight : int }
  | Missing_endpoint of {
      u : Graph.vertex;
      v : Graph.vertex;
      missing : Graph.vertex;
    }
  | Duplicate_affinity of { u : Graph.vertex; v : Graph.vertex }
  | Constrained_affinity of {
      u : Graph.vertex;
      v : Graph.vertex;
      weight : int;
    }

let pp_error ppf = function
  | Nonpositive_k k -> Format.fprintf ppf "k = %d is not positive" k
  | Self_affinity { v; weight } ->
      Format.fprintf ppf "self-affinity %d~%d (weight %d)" v v weight
  | Unordered_affinity { u; v } ->
      Format.fprintf ppf "affinity (%d, %d) not normalized (u < v required)" u v
  | Negative_weight { u; v; weight } ->
      Format.fprintf ppf "affinity (%d, %d) has negative weight %d" u v weight
  | Missing_endpoint { u; v; missing } ->
      Format.fprintf ppf "affinity (%d, %d): endpoint %d is not in the graph" u
        v missing
  | Duplicate_affinity { u; v } ->
      Format.fprintf ppf "duplicate affinity (%d, %d)" u v
  | Constrained_affinity { u; v; weight } ->
      Format.fprintf ppf
        "affinity (%d, %d) (weight %d) joins interfering vertices" u v weight

let error_to_string e = Format.asprintf "%a" pp_error e

let validate ?(forbid_constrained = false) t =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  if t.k <= 0 then add (Nonpositive_k t.k);
  let seen = Hashtbl.create 16 in
  List.iter
    (fun { u; v; weight } ->
      if u = v then add (Self_affinity { v; weight })
      else if u > v then add (Unordered_affinity { u; v });
      if weight < 0 then add (Negative_weight { u; v; weight });
      let u_in = Graph.mem_vertex t.graph u
      and v_in = Graph.mem_vertex t.graph v in
      if not u_in then add (Missing_endpoint { u; v; missing = u });
      if not v_in then add (Missing_endpoint { u; v; missing = v });
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then add (Duplicate_affinity { u; v })
      else Hashtbl.replace seen key ();
      if forbid_constrained && u_in && v_in && Graph.mem_edge t.graph u v then
        add (Constrained_affinity { u; v; weight }))
    t.affinities;
  match List.rev !errs with [] -> Ok () | es -> Error es

let total_weight t = List.fold_left (fun s a -> s + a.weight) 0 t.affinities

let constrained t =
  List.filter (fun a -> Graph.mem_edge t.graph a.u a.v) t.affinities

let unconstrained t =
  List.filter (fun a -> not (Graph.mem_edge t.graph a.u a.v)) t.affinities

let stats t =
  Printf.sprintf
    "|V|=%d |E|=%d affinities=%d (constrained=%d) weight=%d k=%d"
    (Graph.num_vertices t.graph)
    (Graph.num_edges t.graph)
    (List.length t.affinities)
    (List.length (constrained t))
    (total_weight t) t.k

let pp ppf t =
  Format.fprintf ppf "@[<v>%s@,graph: %a@,affinities: %a@]" (stats t) Graph.pp
    t.graph
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf a -> Format.fprintf ppf "%d~%d(w%d)" a.u a.v a.weight))
    t.affinities
