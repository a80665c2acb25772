module Graph = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Certify = Rc_check.Certify

type step =
  | Peeled of int
  | Twin_merged of { kept : int; removed : int; weight : int }

type level = Split_only | Full

type plan = {
  original : Problem.t;
  level : level;
  steps : step list;
  parts : Problem.t list;
  shared : int list;
}

type stats = {
  original_vertices : int;
  residual_vertices : int;
  peeled : int;
  twins : int;
  part_count : int;
  largest_part : int;
}

(* Neighborhoods larger than this skip the twin clique test; the
   reduction is optional, so capping it only costs completeness. *)
let twin_degree_cap = 64

(* ------------------------------------------------------------------ *)
(* Full-level reductions (peel + twin merge to fixpoint)               *)
(* ------------------------------------------------------------------ *)

(* Runs on a mutable copy of the problem's kernel; returns the step
   list (application order) and the surviving affinities. *)
let reduce (p : Problem.t) =
  let f = Problem.flat p in
  let cap = Flat.capacity f in
  let aff = Array.of_list p.affinities in
  let alive = Array.make (Array.length aff) true in
  let aff_count = Array.make cap 0 in
  Array.iter
    (fun (a : Problem.affinity) ->
      aff_count.(Flat.index f a.u) <- aff_count.(Flat.index f a.u) + 1;
      aff_count.(Flat.index f a.v) <- aff_count.(Flat.index f a.v) + 1)
    aff;
  let steps = ref [] in
  let peelable i =
    Flat.is_live f i && aff_count.(i) = 0 && Flat.degree f i < p.k
  in
  let queue = Queue.create () in
  let peel_from i = if peelable i then Queue.add i queue in
  Flat.iter_live f (fun i -> peel_from i);
  let peel_to_fixpoint () =
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      if peelable i then begin
        let ns = Flat.neighbor_list f i in
        Flat.remove_vertex f i;
        steps := Peeled (Flat.label f i) :: !steps;
        List.iter peel_from ns
      end
    done
  in
  let clique ns =
    let rec all_pairs = function
      | [] -> true
      | x :: rest ->
          List.for_all (fun y -> Flat.mem_edge f x y) rest && all_pairs rest
    in
    all_pairs ns
  in
  let try_twin ai =
    let a = aff.(ai) in
    let u = Flat.index f a.u and v = Flat.index f a.v in
    if
      alive.(ai) && Flat.is_live f u && Flat.is_live f v
      && aff_count.(u) = 1
      && aff_count.(v) = 1
      && (not (Flat.mem_edge f u v))
      && Flat.degree f u = Flat.degree f v
      && Flat.degree f u <= twin_degree_cap
      && Flat.count_common f u v = Flat.degree f u
      && clique (Flat.neighbor_list f u)
    then begin
      alive.(ai) <- false;
      aff_count.(u) <- 0;
      aff_count.(v) <- 0;
      let ns = Flat.neighbor_list f v in
      Flat.remove_vertex f v;
      steps :=
        Twin_merged { kept = a.u; removed = a.v; weight = a.weight } :: !steps;
      (* u lost its only affinity; v's removal dropped neighbor
         degrees: both may unlock peels. *)
      peel_from u;
      List.iter peel_from ns;
      true
    end
    else false
  in
  let progress = ref true in
  while !progress do
    peel_to_fixpoint ();
    progress := false;
    Array.iteri
      (fun ai live -> if live && try_twin ai then progress := true)
      alive;
    if !progress then peel_to_fixpoint ()
  done;
  let survivors = ref [] in
  for ai = Array.length aff - 1 downto 0 do
    if alive.(ai) then survivors := aff.(ai) :: !survivors
  done;
  let remaining = ref [] in
  Flat.iter_live f (fun i -> remaining := Flat.label f i :: !remaining);
  (List.rev !steps, !survivors, List.rev !remaining)

(* ------------------------------------------------------------------ *)
(* Splitting                                                           *)
(* ------------------------------------------------------------------ *)

let induced_problem (p : Problem.t) vertices =
  let set = List.fold_left (fun s v -> Graph.ISet.add v s) Graph.ISet.empty vertices in
  Problem.unchecked ~graph:(Graph.induced p.graph set)
    ~affinities:
      (List.filter
         (fun (a : Problem.affinity) ->
           Graph.ISet.mem a.u set && Graph.ISet.mem a.v set)
         p.affinities)
    ~k:p.k

(* Components of interference ∪ affinity (the affinity edges must not
   be separated). *)
let joint_components (p : Problem.t) =
  let parent = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None -> v
    | Some u ->
        let r = find u in
        Hashtbl.replace parent v r;
        r
  in
  let union u v =
    let ru = find u and rv = find v in
    if ru <> rv then Hashtbl.replace parent ru rv
  in
  Graph.iter_edges union p.graph;
  List.iter (fun (a : Problem.affinity) -> union a.u a.v) p.affinities;
  let groups = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let r = find v in
      let cur = match Hashtbl.find_opt groups r with Some l -> l | None -> [] in
      Hashtbl.replace groups r (v :: cur))
    (List.rev (Graph.vertices p.graph));
  Hashtbl.fold (fun _ l acc -> l :: acc) groups []
  |> List.map (fun l -> List.sort compare l)
  |> List.sort compare

(* Split one connected part at a usable articulation point, if any:
   affinity-free, degree < k, and the affinity graph must not
   reconnect the sides. *)
let rec split_part shared (p : Problem.t) =
  let n = Graph.num_vertices p.graph in
  if n <= 2 then [ p ]
  else begin
    (* The articulation scan only reads: the part's own kernel, which
       its solve copies later. *)
    let f = Problem.kernel p in
    let cut, _ = Structure.articulation f in
    let aff_deg = Hashtbl.create 16 in
    List.iter
      (fun (a : Problem.affinity) ->
        Hashtbl.replace aff_deg a.u ();
        Hashtbl.replace aff_deg a.v ())
      p.affinities;
    let candidates = ref [] in
    Flat.iter_live f (fun i ->
        if
          cut.(i)
          && Flat.degree f i < p.k
          && not (Hashtbl.mem aff_deg (Flat.label f i))
        then candidates := Flat.label f i :: !candidates);
    let rec try_candidates = function
      | [] -> [ p ]
      | a :: rest -> (
          let without =
            Problem.unchecked
              ~graph:(Graph.remove_vertex p.graph a)
              ~affinities:p.affinities ~k:p.k
          in
          match joint_components without with
          | [] | [ _ ] -> try_candidates rest
          | comps ->
              shared := a :: !shared;
              List.concat_map
                (fun comp -> split_part shared (induced_problem p (a :: comp)))
                comps)
    in
    try_candidates (List.sort compare !candidates)
  end

(* ------------------------------------------------------------------ *)
(* The plan                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(level = Full) (p : Problem.t) =
  let steps, affinities, remaining =
    match level with
    | Split_only -> ([], p.affinities, Graph.vertices p.graph)
    | Full -> reduce p
  in
  let residual =
    Problem.unchecked
      ~graph:
        (Graph.induced p.graph
           (List.fold_left
              (fun s v -> Graph.ISet.add v s)
              Graph.ISet.empty remaining))
      ~affinities ~k:p.k
  in
  let shared = ref [] in
  let parts =
    joint_components residual
    |> List.concat_map (fun comp ->
           split_part shared (induced_problem residual comp))
    |> List.sort (fun (a : Problem.t) b ->
           compare (Graph.vertices a.graph) (Graph.vertices b.graph))
  in
  {
    original = p;
    level;
    steps;
    parts;
    shared = List.sort_uniq compare !shared;
  }

let stats plan =
  let residual = Hashtbl.create 16 in
  List.iter
    (fun (part : Problem.t) ->
      List.iter
        (fun v -> Hashtbl.replace residual v ())
        (Graph.vertices part.graph))
    plan.parts;
  let peeled, twins =
    List.fold_left
      (fun (p, t) -> function
        | Peeled _ -> (p + 1, t)
        | Twin_merged _ -> (p, t + 1))
      (0, 0) plan.steps
  in
  {
    original_vertices = Graph.num_vertices plan.original.Problem.graph;
    residual_vertices = Hashtbl.length residual;
    peeled;
    twins;
    part_count = List.length plan.parts;
    largest_part =
      List.fold_left
        (fun m (part : Problem.t) -> max m (Graph.num_vertices part.graph))
        0 plan.parts;
  }

let shrink plan =
  let s = stats plan in
  if s.original_vertices = 0 then 0.
  else
    1. -. (float_of_int s.residual_vertices /. float_of_int s.original_vertices)

(* ------------------------------------------------------------------ *)
(* Lift                                                                *)
(* ------------------------------------------------------------------ *)

let lift plan (sols : Coalescing.solution list) =
  if List.length sols <> List.length plan.parts then
    invalid_arg "Presolve.lift: one solution per part required";
  let shared = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace shared v ()) plan.shared;
  (* class id per vertex, growable member lists *)
  let class_of = Hashtbl.create 64 in
  let members = Hashtbl.create 64 in
  let next = ref 0 in
  let new_class mem =
    let id = !next in
    incr next;
    Hashtbl.replace members id mem;
    List.iter (fun v -> Hashtbl.replace class_of v id) mem;
    id
  in
  List.iter
    (fun (sol : Coalescing.solution) ->
      List.iter
        (fun (_, mem) ->
          match mem with
          | [] | [ _ ] -> ()
          | _ ->
              List.iter
                (fun v ->
                  if Hashtbl.mem shared v then
                    invalid_arg
                      "Presolve.lift: shared articulation vertex was coalesced";
                  if Hashtbl.mem class_of v then
                    invalid_arg "Presolve.lift: classes overlap across parts")
                mem;
              ignore (new_class mem))
        (Coalescing.classes sol.state))
    sols;
  (* Twin merges re-expand in reverse application order; every vertex
     occurs in at most one twin step, so the order is immaterial, but
     reverse is the honest direction. *)
  List.iter
    (function
      | Peeled _ -> ()
      | Twin_merged { kept; removed; _ } -> (
          match Hashtbl.find_opt class_of kept with
          | Some id ->
              Hashtbl.replace members id (removed :: Hashtbl.find members id);
              Hashtbl.replace class_of removed id
          | None -> ignore (new_class [ kept; removed ])))
    (List.rev plan.steps);
  let classes =
    Hashtbl.fold (fun _ mem acc -> (List.hd mem, mem) :: acc) members []
  in
  Coalescing.solution_of_state plan.original
    (Coalescing.of_classes plan.original classes)

let lift_certified ~conservative plan sols =
  match lift plan sols with
  | sol ->
      let claims = if conservative then [ Certify.Conservative ] else [] in
      let report = Certify.certify_solution ~claims plan.original sol in
      if Certify.ok report then Ok sol
      else Error (Format.asprintf "%a" Certify.pp_report report)
  | exception Invalid_argument m -> Error m
