module Flat = Rc_graph.Flat
module Chordal = Rc_graph.Chordal
module Problem = Rc_core.Problem

type interval_status =
  | Interval_model of int array
  | Interval_at_free
  | Not_interval_chordless
  | Not_interval_at of int * int * int
  | Interval_unknown

type t = {
  vertices : int;
  edges : int;
  k : int;
  affinities : int;
  constrained : int;
  total_weight : int;
  max_degree : int;
  degeneracy : int;
  components : int;
  articulation_points : int;
  biconnected_blocks : int;
  chordal : bool;
  interval : interval_status;
  affinity_vertices : int;
  affinity_components : int;
}

(* ------------------------------------------------------------------ *)
(* Interval recognition                                                *)
(* ------------------------------------------------------------------ *)

(* Candidate umbrella orders, cheapest first: the index (vertex-id)
   order — the generator family's birth order is a model order by
   construction — then up to three LBFS+ refinement sweeps, each
   checked forward and reversed.  Any passing order is a certificate
   (umbrella_ok is exact); failing all of them decides nothing, hence
   the AT fallback on small graphs. *)
let recognize_interval ~at_limit f =
  let n = Flat.num_live f in
  let cap = Flat.capacity f in
  let identity = Array.make (max 1 n) 0 in
  let i = ref 0 in
  Flat.iter_live f (fun v ->
      identity.(!i) <- v;
      incr i);
  let identity = Array.sub identity 0 n in
  let reversed o =
    let m = Array.length o in
    Array.init m (fun i -> o.(m - 1 - i))
  in
  let positions o =
    let p = Array.make cap 0 in
    Array.iteri (fun pos v -> p.(v) <- pos) o;
    p
  in
  let found = ref None in
  let try_order o =
    if !found = None && Structure.umbrella_ok f o then found := Some o
  in
  try_order identity;
  if !found = None && n > 0 then begin
    let sweep = ref (Structure.lexbfs f) in
    try_order !sweep;
    try_order (reversed !sweep);
    for _ = 1 to 3 do
      if !found = None then begin
        sweep := Structure.lexbfs ~prior:(positions !sweep) f;
        try_order !sweep;
        try_order (reversed !sweep)
      end
    done
  end;
  match !found with
  | Some o -> Interval_model (Array.map (Flat.label f) o)
  | None ->
      if n <= at_limit then
        match Structure.find_asteroidal_triple f with
        | Some (x, y, z) ->
            Not_interval_at (Flat.label f x, Flat.label f y, Flat.label f z)
        | None -> Interval_at_free
      else Interval_unknown

(* ------------------------------------------------------------------ *)
(* Affinity graph                                                      *)
(* ------------------------------------------------------------------ *)

let affinity_stats (p : Problem.t) =
  let parent = Hashtbl.create 16 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None | Some None -> v
    | Some (Some u) ->
        let r = find u in
        Hashtbl.replace parent v (Some r);
        r
  in
  let touch v = if not (Hashtbl.mem parent v) then Hashtbl.add parent v None in
  List.iter
    (fun (a : Problem.affinity) ->
      touch a.u;
      touch a.v;
      let ru = find a.u and rv = find a.v in
      if ru <> rv then Hashtbl.replace parent ru (Some rv))
    p.affinities;
  let vertices = Hashtbl.length parent in
  (* Snapshot the keys first: [find] path-compresses (replaces
     bindings), which is not allowed while iterating the same table. *)
  let keys = Hashtbl.fold (fun v _ acc -> v :: acc) parent [] in
  let roots = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace roots (find v) ()) keys;
  (vertices, Hashtbl.length roots)

(* ------------------------------------------------------------------ *)
(* The profile                                                         *)
(* ------------------------------------------------------------------ *)

let analyze ?(at_limit = 256) (p : Problem.t) =
  let f = Problem.flat p in
  let n = Flat.num_live f in
  let max_degree = ref 0 in
  Flat.iter_live f (fun v ->
      let d = Flat.degree f v in
      if d > !max_degree then max_degree := d);
  let _, components = Structure.components f in
  let cut, biconnected_blocks = Structure.articulation f in
  let articulation_points =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 cut
  in
  let degeneracy = Structure.degeneracy f in
  let chordal = Chordal.flat_is_chordal f in
  let interval =
    if chordal then recognize_interval ~at_limit f else Not_interval_chordless
  in
  let affinity_vertices, affinity_components = affinity_stats p in
  {
    vertices = n;
    edges = Flat.num_edges f;
    k = p.k;
    affinities = List.length p.affinities;
    constrained = List.length (Problem.constrained p);
    total_weight = Problem.total_weight p;
    max_degree = !max_degree;
    degeneracy;
    components;
    articulation_points;
    biconnected_blocks;
    chordal;
    interval;
    affinity_vertices;
    affinity_components;
  }

let interval_order t =
  match t.interval with Interval_model o -> Some (Array.copy o) | _ -> None

let is_interval t =
  match t.interval with
  | Interval_model _ | Interval_at_free -> Some true
  | Not_interval_chordless | Not_interval_at _ -> Some false
  | Interval_unknown -> None

let classification t =
  match t.interval with
  | Interval_model _ -> "interval"
  | Interval_at_free | Interval_unknown | Not_interval_at _ -> "chordal"
  | Not_interval_chordless -> "general"

let interval_token t =
  match t.interval with
  | Interval_model _ -> "model"
  | Interval_at_free -> "at-free"
  | Not_interval_chordless -> "chordless"
  | Not_interval_at _ -> "at"
  | Interval_unknown -> "unknown"

let summary t =
  Printf.sprintf
    "class=%s degen=%d comps=%d arts=%d blocks=%d affc=%d interval=%s"
    (classification t) t.degeneracy t.components t.articulation_points
    t.biconnected_blocks t.affinity_components (interval_token t)

let pp ppf t =
  let line k v = Format.fprintf ppf "%-22s %s@," k v in
  let int k v = line k (string_of_int v) in
  Format.fprintf ppf "@[<v>";
  int "vertices" t.vertices;
  int "edges" t.edges;
  int "k" t.k;
  int "affinities" t.affinities;
  int "constrained" t.constrained;
  int "total-weight" t.total_weight;
  int "max-degree" t.max_degree;
  line "degeneracy"
    (Printf.sprintf "%d (greedy-%d-colorable: %b)" t.degeneracy t.k
       (t.degeneracy < t.k));
  int "components" t.components;
  int "articulation-points" t.articulation_points;
  int "biconnected-blocks" t.biconnected_blocks;
  line "chordal" (string_of_bool t.chordal);
  line "interval"
    (match t.interval with
    | Interval_model _ -> "yes (umbrella order found)"
    | Interval_at_free -> "yes (AT-free, no model order)"
    | Not_interval_chordless -> "no (not chordal)"
    | Not_interval_at (x, y, z) ->
        Printf.sprintf "no (asteroidal triple %d,%d,%d)" x y z
    | Interval_unknown -> "unknown (sweeps inconclusive)");
  int "affinity-vertices" t.affinity_vertices;
  int "affinity-components" t.affinity_components;
  line "class" (classification t);
  Format.fprintf ppf "@]"

let to_json t =
  let b = Buffer.create 256 in
  let field name v = Buffer.add_string b (Printf.sprintf "\"%s\": %s" name v) in
  let sep () = Buffer.add_string b ", " in
  Buffer.add_char b '{';
  field "vertices" (string_of_int t.vertices);
  sep ();
  field "edges" (string_of_int t.edges);
  sep ();
  field "k" (string_of_int t.k);
  sep ();
  field "affinities" (string_of_int t.affinities);
  sep ();
  field "constrained" (string_of_int t.constrained);
  sep ();
  field "total_weight" (string_of_int t.total_weight);
  sep ();
  field "max_degree" (string_of_int t.max_degree);
  sep ();
  field "degeneracy" (string_of_int t.degeneracy);
  sep ();
  field "components" (string_of_int t.components);
  sep ();
  field "articulation_points" (string_of_int t.articulation_points);
  sep ();
  field "biconnected_blocks" (string_of_int t.biconnected_blocks);
  sep ();
  field "chordal" (string_of_bool t.chordal);
  sep ();
  field "interval" (Printf.sprintf "\"%s\"" (interval_token t));
  sep ();
  field "affinity_vertices" (string_of_int t.affinity_vertices);
  sep ();
  field "affinity_components" (string_of_int t.affinity_components);
  sep ();
  field "class" (Printf.sprintf "\"%s\"" (classification t));
  Buffer.add_char b '}';
  Buffer.contents b
