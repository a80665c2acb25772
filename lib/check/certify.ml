module Graph = Rc_graph.Graph
module Greedy_k = Rc_graph.Greedy_k
module Chordal = Rc_graph.Chordal
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing

type claim = Conservative | Chordality_preserved

type answer = {
  classes : (Graph.vertex * Graph.vertex list) list;
  merged_graph : Graph.t;
  coalesced : Problem.affinity list;
  gave_up : Problem.affinity list;
  claimed_weight : int;
}

type violation =
  | Invalid_problem of Problem.error
  | Unknown_class_member of { rep : Graph.vertex; member : Graph.vertex }
  | Representative_outside_class of Graph.vertex
  | Vertex_in_two_classes of Graph.vertex
  | Vertex_not_covered of Graph.vertex
  | Interference_inside_class of {
      u : Graph.vertex;
      v : Graph.vertex;
      rep : Graph.vertex;
    }
  | Missing_merged_vertex of Graph.vertex
  | Spurious_merged_vertex of Graph.vertex
  | Missing_projected_edge of { u : Graph.vertex; v : Graph.vertex }
  | Spurious_merged_edge of { u : Graph.vertex; v : Graph.vertex }
  | Misclassified_affinity of {
      u : Graph.vertex;
      v : Graph.vertex;
      claimed_coalesced : bool;
    }
  | Affinity_unaccounted of { u : Graph.vertex; v : Graph.vertex }
  | Weight_mismatch of { claimed : int; actual : int }
  | Not_conservative of { k : int }
  | Chordality_lost
  | Merge_log_divergence of { reason : string }

type report = { claims : claim list; violations : violation list }

let pp_violation ppf = function
  | Invalid_problem e ->
      Format.fprintf ppf "invalid problem: %a" Problem.pp_error e
  | Unknown_class_member { rep; member } ->
      Format.fprintf ppf "class of %d contains %d, not a vertex of the graph"
        rep member
  | Representative_outside_class r ->
      Format.fprintf ppf "representative %d is not a member of its class" r
  | Vertex_in_two_classes v ->
      Format.fprintf ppf "vertex %d appears in two classes" v
  | Vertex_not_covered v ->
      Format.fprintf ppf "vertex %d is covered by no class" v
  | Interference_inside_class { u; v; rep } ->
      Format.fprintf ppf
        "interfering vertices %d and %d are both in the class of %d" u v rep
  | Missing_merged_vertex v ->
      Format.fprintf ppf "representative %d is missing from the merged graph" v
  | Spurious_merged_vertex v ->
      Format.fprintf ppf
        "merged graph contains %d, which represents no class" v
  | Missing_projected_edge { u; v } ->
      Format.fprintf ppf
        "projected interference (%d, %d) is missing from the merged graph" u v
  | Spurious_merged_edge { u; v } ->
      Format.fprintf ppf
        "merged-graph edge (%d, %d) corresponds to no original interference" u
        v
  | Misclassified_affinity { u; v; claimed_coalesced } ->
      Format.fprintf ppf
        "affinity (%d, %d) claimed %s, but the classes say otherwise" u v
        (if claimed_coalesced then "coalesced" else "given up")
  | Affinity_unaccounted { u; v } ->
      Format.fprintf ppf
        "affinity (%d, %d) unknown, duplicated, or missing from the \
         classification"
        u v
  | Weight_mismatch { claimed; actual } ->
      Format.fprintf ppf "claimed removed weight %d, recomputed %d" claimed
        actual
  | Not_conservative { k } ->
      Format.fprintf ppf
        "claimed conservative, but the merged graph is not greedy-%d-colorable"
        k
  | Chordality_lost ->
      Format.fprintf ppf
        "claimed chordality-preserving on a chordal input, but the merged \
         graph is not chordal"
  | Merge_log_divergence { reason } ->
      Format.fprintf ppf "merge log does not realize the answer: %s" reason

let violation_to_string v = Format.asprintf "%a" pp_violation v

let pp_report ppf r =
  match r.violations with
  | [] -> Format.fprintf ppf "certified OK (%d claims)" (List.length r.claims)
  | vs ->
      Format.fprintf ppf "@[<v>%d violation(s):@,%a@]" (List.length vs)
        (Format.pp_print_list pp_violation)
        vs

let ok r = r.violations = []

let answer_of_solution (sol : Coalescing.solution) =
  {
    classes = Coalescing.classes sol.state;
    merged_graph = Coalescing.graph sol.state;
    coalesced = sol.coalesced;
    gave_up = sol.gave_up;
    claimed_weight = Coalescing.coalesced_weight sol;
  }

let certify ?(claims = []) (p : Problem.t) (a : answer) =
  let viols = ref [] in
  let add v = viols := v :: !viols in
  (match Problem.validate p with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> add (Invalid_problem e)) es);
  (* The partition: vertex -> representative, rejecting overlaps and
     members outside the graph. *)
  let find_tbl = Hashtbl.create 64 in
  List.iter
    (fun (rep, members) ->
      if not (List.mem rep members) then add (Representative_outside_class rep);
      List.iter
        (fun m ->
          if not (Graph.mem_vertex p.graph m) then
            add (Unknown_class_member { rep; member = m })
          else if Hashtbl.mem find_tbl m then add (Vertex_in_two_classes m)
          else Hashtbl.replace find_tbl m rep)
        members)
    a.classes;
  let find v = Hashtbl.find_opt find_tbl v in
  List.iter
    (fun v -> if find v = None then add (Vertex_not_covered v))
    (Graph.vertices p.graph);
  (* No interference inside a class, and the merged graph is exactly the
     quotient: rebuild the quotient from scratch and compare both
     directions. *)
  let quotient = ref Graph.empty in
  Hashtbl.iter (fun _ rep -> quotient := Graph.add_vertex !quotient rep) find_tbl;
  Graph.fold_edges
    (fun u v () ->
      match (find u, find v) with
      | Some ru, Some rv when ru = rv ->
          add (Interference_inside_class { u; v; rep = ru })
      | Some ru, Some rv -> quotient := Graph.add_edge !quotient ru rv
      | _ -> ())
    p.graph ();
  let quotient = !quotient in
  List.iter
    (fun r ->
      if not (Graph.mem_vertex a.merged_graph r) then
        add (Missing_merged_vertex r))
    (Graph.vertices quotient);
  List.iter
    (fun v ->
      if not (Graph.mem_vertex quotient v) then add (Spurious_merged_vertex v))
    (Graph.vertices a.merged_graph);
  Graph.fold_edges
    (fun u v () ->
      if not (Graph.mem_edge a.merged_graph u v) then
        add (Missing_projected_edge { u; v }))
    quotient ();
  Graph.fold_edges
    (fun u v () ->
      if not (Graph.mem_edge quotient u v) then
        add (Spurious_merged_edge { u; v }))
    a.merged_graph ();
  (* Affinity classification: each problem affinity appears exactly once,
     in the list the partition dictates. *)
  let aff_tbl = Hashtbl.create 64 in
  List.iter
    (fun (aff : Problem.affinity) ->
      let coalesced =
        match (find aff.u, find aff.v) with
        | Some ru, Some rv -> ru = rv
        | _ -> false
      in
      Hashtbl.replace aff_tbl (aff.u, aff.v) (coalesced, ref false))
    p.affinities;
  let scan_list claimed_coalesced =
    List.iter (fun (aff : Problem.affinity) ->
        match Hashtbl.find_opt aff_tbl (aff.u, aff.v) with
        | None -> add (Affinity_unaccounted { u = aff.u; v = aff.v })
        | Some (expected, seen) ->
            if !seen then add (Affinity_unaccounted { u = aff.u; v = aff.v })
            else begin
              seen := true;
              if expected <> claimed_coalesced then
                add
                  (Misclassified_affinity
                     { u = aff.u; v = aff.v; claimed_coalesced })
            end)
  in
  scan_list true a.coalesced;
  scan_list false a.gave_up;
  List.iter
    (fun (aff : Problem.affinity) ->
      let _, seen = Hashtbl.find aff_tbl (aff.u, aff.v) in
      if not !seen then add (Affinity_unaccounted { u = aff.u; v = aff.v }))
    p.affinities;
  (* Removed-move weight, recomputed from the partition alone. *)
  let actual =
    List.fold_left
      (fun acc (aff : Problem.affinity) ->
        match (find aff.u, find aff.v) with
        | Some ru, Some rv when ru = rv -> acc + aff.weight
        | _ -> acc)
      0 p.affinities
  in
  if actual <> a.claimed_weight then
    add (Weight_mismatch { claimed = a.claimed_weight; actual });
  (* Claims, re-established from scratch on the Reference kernels —
     independent of the flat/speculative machinery under audit. *)
  List.iter
    (fun c ->
      match c with
      | Conservative ->
          if not (Greedy_k.Reference.is_greedy_k_colorable a.merged_graph p.k)
          then add (Not_conservative { k = p.k })
      | Chordality_preserved ->
          if
            Chordal.Reference.is_chordal p.graph
            && not (Chordal.Reference.is_chordal a.merged_graph)
          then add Chordality_lost)
    claims;
  { claims; violations = List.rev !viols }

let certify_solution ?claims p sol = certify ?claims p (answer_of_solution sol)

let check_merge_log (p : Problem.t) log (a : answer) =
  let exception Diverged of string in
  try
    let st =
      List.fold_left
        (fun st (u, v) ->
          match Coalescing.merge st u v with
          | Some st' -> st'
          | None ->
              raise
                (Diverged
                   (Printf.sprintf
                      "merge (%d, %d) of the log is infeasible when replayed"
                      u v)))
        (Coalescing.initial p)
        log
    in
    let norm classes =
      List.map (fun (r, ms) -> (r, List.sort compare ms)) classes
      |> List.sort compare
    in
    let viols = ref [] in
    if norm (Coalescing.classes st) <> norm a.classes then
      viols :=
        Merge_log_divergence
          { reason = "replayed classes differ from the answer's" }
        :: !viols;
    if not (Graph.equal (Coalescing.graph st) a.merged_graph) then
      viols :=
        Merge_log_divergence
          { reason = "replayed merged graph differs from the answer's" }
        :: !viols;
    List.rev !viols
  with Diverged reason -> [ Merge_log_divergence { reason } ]
