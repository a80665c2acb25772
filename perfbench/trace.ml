(* Spans recorded by the benchmark around its own calls into the
   system's layers.

   A span has a name ("<layer>.<what>"), start and end on the monotonic
   clock, the span that was open when it started (its parent) and the
   op it belongs to.  Spans are kept in memory and written out once the
   run ends.  Recording happens on the driving domain only: every
   traced call is made from it, so no synchronisation is needed.  With
   tracing off, [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 at the root *)
  t0 : int;  (* ns *)
  t1 : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)
let now_ns () = Int64.to_int (Rc_core.Mclock.now_ns ())

let span ?op name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current and parent_op = !current_op in
    let op = Option.value op ~default:parent_op in
    current := id;
    current_op := op;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now_ns () in
        current := parent;
        current_op := parent_op;
        recorded := { id; name; op; parent; t0; t1 } :: !recorded)
      f
  end

let reset () =
  recorded := [];
  next_id := 0;
  current := -1;
  current_op := -1

(* Spans in start order (ids are allocated at start). *)
let spans () =
  let a = Array.of_list !recorded in
  Array.sort (fun a b -> compare a.id b.id) a;
  a

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let duration_ns s = s.t1 - s.t0

(* Self time: a span's duration minus the time its children cover.
   Children of one span never overlap (they run on one domain), so
   that is their summed duration. *)
let self_ns (spans : span array) =
  let children = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        let c = try Hashtbl.find children s.parent with Not_found -> 0 in
        Hashtbl.replace children s.parent (c + duration_ns s))
    spans;
  Array.map
    (fun s ->
      let c = try Hashtbl.find children s.id with Not_found -> 0 in
      (s, duration_ns s - c))
    spans

(* Durations in ms of every span with exactly this name. *)
let durations_ms spans name =
  Array.fold_right
    (fun s acc ->
      if s.name = name then (float_of_int (duration_ns s) *. 1e-6) :: acc
      else acc)
    spans []

(* Self time in ms summed per layer, over all spans. *)
let self_by_layer_ms spans =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun (s, self) ->
      let l = layer s.name in
      let c = try Hashtbl.find tbl l with Not_found -> 0. in
      Hashtbl.replace tbl l (c +. (float_of_int self *. 1e-6)))
    (self_ns spans);
  tbl

let write path ~meta =
  let oc = open_out path in
  output_string oc meta;
  output_char oc '\n';
  Array.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.op s.parent s.t0 s.t1)
    (spans ());
  close_out oc
