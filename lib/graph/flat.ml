(* Flat mutable graph kernel.  See the interface for the design notes.

   Representation invariants:
   - Every live vertex [u] owns exactly one adjacency row, in one of two
     physical forms selected by density:
       sparse: [adj.(u)] holds the live neighbors in its first [len.(u)]
         cells, without duplicates; [dense.(u)] is the shared [[||]].
       dense:  [dense.(u)] is a bitset of [words] 32-bit chunks (stored
         in native ints); bit [v] is set iff (u, v) is an edge, and
         [adj.(u)] is [[||]].
     A sparse row is promoted in place to dense when its degree reaches
     [threshold]; promotion preserves the edge set, so it is invisible
     to the undo log, and rows are never demoted.
   - [len.(u)] is the degree for both forms (popcount of a dense row).
   - A dense row [u] carries a two-level summary [summary.(u)]: bit [i]
     of the summary is set iff word [i] of [dense.(u)] is non-zero.
     Every bit mutation funnels through [push_neighbor] /
     [drop_neighbor] (merge grafts, vertex removal and rollback
     included), which keep the summary exact; sparse rows have the
     shared [[||]] summary.
   - In [Matrix] mode ([bits] non-empty) every row is sparse and [bits]
     additionally holds the symmetric cap x cap adjacency bitmatrix of
     PR 1: bit (u, v) at index u * cap + v, set iff (v, u) is set.
   - The undo log records primitive operations (edge added, edge
     removed, vertex killed) newest-last; rollback replays inverses
     newest-first.  Logging is active iff [ncheck > 0]. *)

type rows = Auto | Matrix | Sparse_rows | Bitset_rows | Threshold of int

(* Shared textual form of the rows policy, so every CLI surface (sweep,
   bench harnesses) parses the same vocabulary. *)
let rows_to_string = function
  | Auto -> "auto"
  | Matrix -> "matrix"
  | Sparse_rows -> "sparse"
  | Bitset_rows -> "bitset"
  | Threshold n -> Printf.sprintf "threshold:%d" n

let rows_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "matrix" -> Some Matrix
  | "sparse" -> Some Sparse_rows
  | "bitset" -> Some Bitset_rows
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "threshold" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n >= 0 -> Some (Threshold n)
          | _ -> None)
      | _ -> None)

type op =
  | Op_add of int * int (* edge (u, v) was added *)
  | Op_remove of int * int (* edge (u, v) was removed *)
  | Op_kill of int (* vertex was marked dead (edges already removed) *)

type t = {
  cap : int;
  words : int; (* 32-bit chunks per dense row: (cap + 31) / 32 *)
  threshold : int; (* promote a sparse row when its degree reaches this *)
  bits : Bytes.t; (* Matrix mode only; [Bytes.empty] otherwise *)
  adj : int array array; (* sparse rows; [[||]] for dense rows *)
  dense : int array array; (* dense rows; [[||]] for sparse rows *)
  summary : int array array; (* word-occupancy bitmaps of dense rows *)
  len : int array;
  alive : Bytes.t; (* one byte per index: '\001' live, '\000' dead *)
  mutable nlive : int;
  mutable nedges : int;
  labels : int array; (* index -> original vertex *)
  index_tbl : (int, int) Hashtbl.t; (* original vertex -> index *)
  mutable log : op array;
  mutable log_len : int;
  mutable ncheck : int;
  mutable sbuf1 : int array;
  mutable sbuf2 : int array;
  mutable wbuf : int array; (* private word scratch for dense merges *)
  mutable epoch : int;
      (* bumped on every structural mutation, including the replays a
         rollback performs.  Derived structures ({!Elim_order}) record
         the epoch they last agreed with and compare to detect
         staleness; only equality matters, never the magnitude. *)
}

type checkpoint = int

(* ------------------------------------------------------------------ *)
(* Word-level bit operations                                           *)
(* ------------------------------------------------------------------ *)

(* Dense rows pack 32 logical bits per native int.  32 (not 63) keeps
   the in-word offset a power-of-two shift/mask ([lsr 5] / [land 31])
   and every mask a comfortable immediate on a 64-bit host. *)
module Bits = struct
  let word_bits = 32

  (* SWAR popcount of the low 32 bits.  The final byte-sum multiply
     runs in 63-bit arithmetic, so the high lanes must be masked off
     after the shift. *)
  let popcount w =
    let w = w - ((w lsr 1) land 0x55555555) in
    let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
    let w = (w + (w lsr 4)) land 0x0F0F0F0F in
    (w * 0x01010101) lsr 24 land 0xFF

  (* Index of the least-significant set bit via the de Bruijn sequence
     0x077CB531 — branch-free, table of 32.  Undefined on 0. *)
  let lsb_table =
    [|
      0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
      21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
    |]

  let lsb w =
    Array.unsafe_get lsb_table
      (((w land -w) * 0x077CB531 land 0xFFFFFFFF) lsr 27)
end

(* [bit_index b] for [b] a single-bit word ([w land -w]). *)
let bit_index b =
  Array.unsafe_get Bits.lsb_table ((b * 0x077CB531 land 0xFFFFFFFF) lsr 27)

let wget row v =
  Array.unsafe_get row (v lsr 5) land (1 lsl (v land 31)) <> 0

let wset row v =
  let i = v lsr 5 in
  Array.unsafe_set row i (Array.unsafe_get row i lor (1 lsl (v land 31)))

let wclear row v =
  let i = v lsr 5 in
  Array.unsafe_set row i (Array.unsafe_get row i land lnot (1 lsl (v land 31)))

(* ------------------------------------------------------------------ *)
(* Matrix-mode bitmatrix                                               *)
(* ------------------------------------------------------------------ *)

let get_bit t u v =
  let i = (u * t.cap) + v in
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit1 t u v =
  let i = (u * t.cap) + v in
  Bytes.unsafe_set t.bits (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits (i lsr 3)) lor (1 lsl (i land 7))))

let clear_bit1 t u v =
  let i = (u * t.cap) + v in
  Bytes.unsafe_set t.bits (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits (i lsr 3))
       land lnot (1 lsl (i land 7))))

let has_matrix t = Bytes.length t.bits <> 0

(* ------------------------------------------------------------------ *)
(* Basic queries                                                       *)
(* ------------------------------------------------------------------ *)

let capacity t = t.cap
let num_live t = t.nlive
let num_edges t = t.nedges
let is_live t v = v >= 0 && v < t.cap && Bytes.unsafe_get t.alive v <> '\000'
let label t v = t.labels.(v)
let index t orig = Hashtbl.find t.index_tbl orig
let degree t v = t.len.(v)
let row_is_dense t v = Array.length (Array.unsafe_get t.dense v) <> 0
let row_words t v = t.dense.(v)
let row_entries t v = t.adj.(v)
let row_summary t v = t.summary.(v)
let words_per_row t = t.words

(* Summary words per dense row: one occupancy bit per 32-bit chunk. *)
let summary_words_of words = (words + 31) lsr 5
let summary_words t = summary_words_of t.words

(* Membership of [v] in the physical row of [u] — the canonical
   representation check, used symmetrically by the auditors. *)
let row_mem t u v =
  let d = Array.unsafe_get t.dense u in
  if Array.length d <> 0 then wget d v
  else
    let a = t.adj.(u) and n = t.len.(u) in
    let rec go i = i < n && (Array.unsafe_get a i = v || go (i + 1)) in
    go 0

let mem_edge t u v =
  if has_matrix t then get_bit t u v
  else
    let du = Array.unsafe_get t.dense u in
    if Array.length du <> 0 then wget du v
    else
      let dv = Array.unsafe_get t.dense v in
      if Array.length dv <> 0 then wget dv u
      else begin
        (* Both sparse: scan the shorter row.  Its length is below the
           promotion threshold, so this probe is threshold-bounded. *)
        let u, v = if t.len.(u) <= t.len.(v) then (u, v) else (v, u) in
        let a = t.adj.(u) and n = t.len.(u) in
        let rec go i = i < n && (Array.unsafe_get a i = v || go (i + 1)) in
        go 0
      end

let check_index t name v =
  if v < 0 || v >= t.cap then
    invalid_arg (Printf.sprintf "Flat.%s: index %d out of range" name v);
  if not (is_live t v) then
    invalid_arg (Printf.sprintf "Flat.%s: dead index %d" name v)

let iter_neighbors t v f =
  let d = Array.unsafe_get t.dense v in
  let nw = Array.length d in
  if nw <> 0 then
    for i = 0 to nw - 1 do
      let w = ref (Array.unsafe_get d i) in
      if !w <> 0 then begin
        let base = i lsl 5 in
        while !w <> 0 do
          let b = !w land - !w in
          f (base + bit_index b);
          w := !w lxor b
        done
      end
    done
  else begin
    let a = t.adj.(v) and n = t.len.(v) in
    for i = 0 to n - 1 do
      f (Array.unsafe_get a i)
    done
  end

(* Degree-bucketed hybrid walk over one row.  A bitset row whose
   population is far below its word count (the K3 regime where bitset
   rows lose pure iteration to int rows: forced-bitset or huge-capacity
   kernels with bounded degree) is consumed through the summary — only
   non-empty words are touched, one summary read per 32 words skipped.
   A well-populated row keeps the plain word scan: the summary
   indirection would only add overhead when nearly every word is
   occupied. *)
let iter_row_hybrid t v f =
  let d = Array.unsafe_get t.dense v in
  let nw = Array.length d in
  if nw = 0 then begin
    let a = t.adj.(v) and n = t.len.(v) in
    for i = 0 to n - 1 do
      f (Array.unsafe_get a i)
    done
  end
  else if t.len.(v) * 4 >= nw then
    (* High bucket: population >= nw/4 — plain scan. *)
    for i = 0 to nw - 1 do
      let w = ref (Array.unsafe_get d i) in
      if !w <> 0 then begin
        let base = i lsl 5 in
        while !w <> 0 do
          let b = !w land - !w in
          f (base + bit_index b);
          w := !w lxor b
        done
      end
    done
  else begin
    let s = Array.unsafe_get t.summary v in
    for si = 0 to Array.length s - 1 do
      let sw = ref (Array.unsafe_get s si) in
      if !sw <> 0 then begin
        let sbase = si lsl 5 in
        while !sw <> 0 do
          let sb = !sw land - !sw in
          let i = sbase + bit_index sb in
          sw := !sw lxor sb;
          let w = ref (Array.unsafe_get d i) in
          let base = i lsl 5 in
          while !w <> 0 do
            let b = !w land - !w in
            f (base + bit_index b);
            w := !w lxor b
          done
        done
      end
    done
  end

let fold_neighbors t v f init =
  let acc = ref init in
  iter_neighbors t v (fun u -> acc := f !acc u);
  !acc

let neighbor_list t v = fold_neighbors t v (fun acc u -> u :: acc) []

let iter_live t f =
  for v = 0 to t.cap - 1 do
    if Bytes.unsafe_get t.alive v <> '\000' then f v
  done

let dense_rows t =
  let n = ref 0 in
  iter_live t (fun v -> if row_is_dense t v then incr n);
  !n

(* ------------------------------------------------------------------ *)
(* Word-parallel set views over two rows                               *)
(* ------------------------------------------------------------------ *)

let iter_diff t u v f =
  let du = Array.unsafe_get t.dense u and dv = Array.unsafe_get t.dense v in
  if Array.length du <> 0 && Array.length dv <> 0 then
    if t.len.(u) * 4 >= t.words then
      for i = 0 to t.words - 1 do
        let w =
          ref (Array.unsafe_get du i land lnot (Array.unsafe_get dv i))
        in
        if !w <> 0 then begin
          let base = i lsl 5 in
          while !w <> 0 do
            let b = !w land - !w in
            f (base + bit_index b);
            w := !w lxor b
          done
        end
      done
    else begin
      (* Sparse-populated left row: the difference lives only in words
         [u] occupies, so walk them through [u]'s summary. *)
      let s = Array.unsafe_get t.summary u in
      for si = 0 to Array.length s - 1 do
        let sw = ref (Array.unsafe_get s si) in
        if !sw <> 0 then begin
          let sbase = si lsl 5 in
          while !sw <> 0 do
            let sb = !sw land - !sw in
            let i = sbase + bit_index sb in
            sw := !sw lxor sb;
            let w =
              ref (Array.unsafe_get du i land lnot (Array.unsafe_get dv i))
            in
            let base = i lsl 5 in
            while !w <> 0 do
              let b = !w land - !w in
              f (base + bit_index b);
              w := !w lxor b
            done
          done
        end
      done
    end
  else iter_neighbors t u (fun w -> if not (mem_edge t v w) then f w)

let iter_common t u v f =
  let du = Array.unsafe_get t.dense u and dv = Array.unsafe_get t.dense v in
  if Array.length du <> 0 && Array.length dv <> 0 then
    if t.len.(u) * 4 >= t.words && t.len.(v) * 4 >= t.words then
      for i = 0 to t.words - 1 do
        let w = ref (Array.unsafe_get du i land Array.unsafe_get dv i) in
        if !w <> 0 then begin
          let base = i lsl 5 in
          while !w <> 0 do
            let b = !w land - !w in
            f (base + bit_index b);
            w := !w lxor b
          done
        end
      done
    else begin
      (* The intersection lives in words both rows occupy: AND the
         summaries to visit only those. *)
      let su = Array.unsafe_get t.summary u
      and sv = Array.unsafe_get t.summary v in
      for si = 0 to Array.length su - 1 do
        let sw =
          ref (Array.unsafe_get su si land Array.unsafe_get sv si)
        in
        if !sw <> 0 then begin
          let sbase = si lsl 5 in
          while !sw <> 0 do
            let sb = !sw land - !sw in
            let i = sbase + bit_index sb in
            sw := !sw lxor sb;
            let w = ref (Array.unsafe_get du i land Array.unsafe_get dv i) in
            let base = i lsl 5 in
            while !w <> 0 do
              let b = !w land - !w in
              f (base + bit_index b);
              w := !w lxor b
            done
          done
        end
      done
    end
  else begin
    (* Iterate the smaller row, probe the other. *)
    let u, v = if t.len.(u) <= t.len.(v) then (u, v) else (v, u) in
    iter_neighbors t u (fun w -> if mem_edge t v w then f w)
  end

let count_common t u v =
  let du = Array.unsafe_get t.dense u and dv = Array.unsafe_get t.dense v in
  if Array.length du <> 0 && Array.length dv <> 0 then begin
    let n = ref 0 in
    if t.len.(u) * 4 >= t.words && t.len.(v) * 4 >= t.words then
      for i = 0 to t.words - 1 do
        n :=
          !n + Bits.popcount (Array.unsafe_get du i land Array.unsafe_get dv i)
      done
    else begin
      let su = Array.unsafe_get t.summary u
      and sv = Array.unsafe_get t.summary v in
      for si = 0 to Array.length su - 1 do
        let sw =
          ref (Array.unsafe_get su si land Array.unsafe_get sv si)
        in
        if !sw <> 0 then begin
          let sbase = si lsl 5 in
          while !sw <> 0 do
            let sb = !sw land - !sw in
            let i = sbase + bit_index sb in
            sw := !sw lxor sb;
            n :=
              !n
              + Bits.popcount
                  (Array.unsafe_get du i land Array.unsafe_get dv i)
          done
        end
      done
    end;
    !n
  end
  else begin
    let u, v = if t.len.(u) <= t.len.(v) then (u, v) else (v, u) in
    fold_neighbors t u (fun n w -> if mem_edge t v w then n + 1 else n) 0
  end

(* ------------------------------------------------------------------ *)
(* Raw (unlogged) mutations                                            *)
(* ------------------------------------------------------------------ *)

(* In-place promotion of a sparse row to the dense form.  The edge set
   is unchanged, so the undo log never sees it; a later rollback past
   this point simply leaves the row dense with fewer bits. *)
let promote t u =
  let a = t.adj.(u) and n = t.len.(u) in
  let d = Array.make t.words 0 in
  for i = 0 to n - 1 do
    wset d (Array.unsafe_get a i)
  done;
  let s = Array.make (summary_words_of t.words) 0 in
  for i = 0 to t.words - 1 do
    if Array.unsafe_get d i <> 0 then wset s i
  done;
  t.dense.(u) <- d;
  t.summary.(u) <- s;
  t.adj.(u) <- [||]

let push_neighbor t u v =
  let d = Array.unsafe_get t.dense u in
  if Array.length d <> 0 then begin
    wset d v;
    wset (Array.unsafe_get t.summary u) (v lsr 5);
    t.len.(u) <- t.len.(u) + 1
  end
  else begin
    let a = t.adj.(u) in
    let n = t.len.(u) in
    if n = Array.length a then begin
      let b = Array.make (max 4 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      t.adj.(u) <- b;
      b.(n) <- v
    end
    else Array.unsafe_set a n v;
    t.len.(u) <- n + 1;
    if n + 1 >= t.threshold then promote t u
  end

(* Remove [v] from the adjacency row of [u]: O(1) word clear for a
   dense row; swap-remove for a sparse one (the row order is not
   meaningful), O(degree) worst case and O(1) amortized for rollbacks
   of fresh additions. *)
let drop_neighbor t u v =
  let d = Array.unsafe_get t.dense u in
  if Array.length d <> 0 then begin
    wclear d v;
    if Array.unsafe_get d (v lsr 5) = 0 then
      wclear (Array.unsafe_get t.summary u) (v lsr 5)
  end
  else begin
    let a = t.adj.(u) in
    let rec find i = if Array.unsafe_get a i = v then i else find (i + 1) in
    let i = find 0 in
    a.(i) <- a.(t.len.(u) - 1)
  end;
  t.len.(u) <- t.len.(u) - 1

let raw_add_edge t u v =
  if has_matrix t then begin
    set_bit1 t u v;
    set_bit1 t v u
  end;
  push_neighbor t u v;
  push_neighbor t v u;
  t.epoch <- t.epoch + 1;
  t.nedges <- t.nedges + 1

let raw_remove_edge t u v =
  if has_matrix t then begin
    clear_bit1 t u v;
    clear_bit1 t v u
  end;
  t.epoch <- t.epoch + 1;
  drop_neighbor t u v;
  drop_neighbor t v u;
  t.nedges <- t.nedges - 1

(* ------------------------------------------------------------------ *)
(* Undo log                                                            *)
(* ------------------------------------------------------------------ *)

let log_op t op =
  if t.ncheck > 0 then begin
    if t.log_len = Array.length t.log then begin
      let b = Array.make (max 16 (2 * t.log_len)) op in
      Array.blit t.log 0 b 0 t.log_len;
      t.log <- b
    end;
    t.log.(t.log_len) <- op;
    t.log_len <- t.log_len + 1
  end

(* Speculation events, surfaced to an optional monitor so a sanitizer
   (Rc_check.Sanitize) can assert undo-log balance and sample
   structural invariants.  Release builds leave the hook at [None]: the
   cost is one domain-local load and branch per speculation event —
   which are per-probe, never per-edge.

   The hook lives in domain-local storage, not a global ref: the sweep
   engine (Rc_engine.Pool) runs one solver task per domain, and a
   monitor mutating shared audit counters from several domains would
   race.  Each domain installs (and observes) its own monitor; a kernel
   is only ever mutated by the domain that created it (one [Flat.t] per
   task is the engine contract).  The one exception is a frozen
   snapshot — the [Flat.copy] a committed merge state keeps: it is
   never written after the copy, so several domains may read it at
   once, through read-only paths that claim no scratch buffer
   ([to_graph], [compact], [copy], the call-local greedy-k check).
   None of those fire the monitor. *)
type event =
  | Checkpointed of checkpoint
  | Rolled_back of checkpoint
  | Released of checkpoint

let monitor : (event -> t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_monitor m = Domain.DLS.set monitor m

let notify ev t =
  match Domain.DLS.get monitor with None -> () | Some f -> f ev t

let log_length t = t.log_len
let epoch t = t.epoch
let log_position (c : checkpoint) = c

let checkpoint t =
  t.ncheck <- t.ncheck + 1;
  let c = t.log_len in
  notify (Checkpointed c) t;
  c

let rollback t c =
  if t.ncheck <= 0 then invalid_arg "Flat.rollback: no open checkpoint";
  while t.log_len > c do
    t.log_len <- t.log_len - 1;
    match t.log.(t.log_len) with
    | Op_add (u, v) -> raw_remove_edge t u v
    | Op_remove (u, v) -> raw_add_edge t u v
    | Op_kill v ->
        Bytes.unsafe_set t.alive v '\001';
        t.nlive <- t.nlive + 1;
        t.epoch <- t.epoch + 1
  done;
  t.ncheck <- t.ncheck - 1;
  notify (Rolled_back c) t

let release t c =
  if t.ncheck <= 0 then invalid_arg "Flat.release: no open checkpoint";
  t.ncheck <- t.ncheck - 1;
  if t.ncheck = 0 then t.log_len <- 0;
  notify (Released c) t

let checkpoint_depth t = t.ncheck

(* ------------------------------------------------------------------ *)
(* Logged mutations                                                    *)
(* ------------------------------------------------------------------ *)

let add_edge t u v =
  check_index t "add_edge" u;
  check_index t "add_edge" v;
  if u = v then invalid_arg "Flat.add_edge: self-loop";
  if not (mem_edge t u v) then begin
    raw_add_edge t u v;
    log_op t (Op_add (u, v))
  end

(* Bulk-load variant: skips the membership probe (and the liveness
   checks), for streaming construction of large instances where the
   producer guarantees each edge arrives exactly once. *)
let add_new_edge t u v =
  raw_add_edge t u v;
  log_op t (Op_add (u, v))

let remove_edge t u v =
  if mem_edge t u v then begin
    raw_remove_edge t u v;
    log_op t (Op_remove (u, v))
  end

let remove_vertex t v =
  if is_live t v then begin
    let d = Array.unsafe_get t.dense v in
    if Array.length d <> 0 then
      (* Word cursor over the row; [raw_remove_edge] clears bits of the
         word being scanned, but the scan reads each word once into a
         local before consuming it. *)
      for i = 0 to Array.length d - 1 do
        let w = ref (Array.unsafe_get d i) in
        let base = i lsl 5 in
        while !w <> 0 do
          let b = !w land - !w in
          let u = base + bit_index b in
          w := !w lxor b;
          raw_remove_edge t v u;
          log_op t (Op_remove (v, u))
        done
      done
    else
      while t.len.(v) > 0 do
        let u = t.adj.(v).(t.len.(v) - 1) in
        raw_remove_edge t v u;
        log_op t (Op_remove (v, u))
      done;
    Bytes.unsafe_set t.alive v '\000';
    t.nlive <- t.nlive - 1;
    t.epoch <- t.epoch + 1;
    log_op t (Op_kill v)
  end

let word_scratch t =
  if Array.length t.wbuf < t.words then t.wbuf <- Array.make t.words 0;
  t.wbuf

let merge t u v =
  check_index t "merge" u;
  check_index t "merge" v;
  if u = v then invalid_arg "Flat.merge: identical vertices";
  if mem_edge t u v then invalid_arg "Flat.merge: adjacent vertices";
  let du = Array.unsafe_get t.dense u and dv = Array.unsafe_get t.dense v in
  if Array.length du <> 0 && Array.length dv <> 0 then begin
    (* Word-parallel graft: N(v) \ N(u) computed in [words] AND-NOTs
       before v is dismantled.  Every member is live, distinct from u
       and not yet adjacent to it, so the per-edge membership probe of
       [add_edge] is provably redundant — each addition is still logged
       individually, so rollback works unchanged. *)
    let fresh = word_scratch t in
    for i = 0 to t.words - 1 do
      Array.unsafe_set fresh i
        (Array.unsafe_get dv i land lnot (Array.unsafe_get du i))
    done;
    remove_vertex t v;
    for i = 0 to t.words - 1 do
      let w = ref (Array.unsafe_get fresh i) in
      if !w <> 0 then begin
        let base = i lsl 5 in
        while !w <> 0 do
          let b = !w land - !w in
          let x = base + bit_index b in
          w := !w lxor b;
          raw_add_edge t u x;
          log_op t (Op_add (u, x))
        done
      end
    done
  end
  else begin
    (* Snapshot v's neighbors before removing it, then graft them onto
       u.  Every step is logged individually, so rollback works for
       free. *)
    let nv =
      if Array.length dv = 0 then Array.sub t.adj.(v) 0 t.len.(v)
      else begin
        let out = Array.make t.len.(v) 0 in
        let k = ref 0 in
        iter_neighbors t v (fun w ->
            out.(!k) <- w;
            incr k);
        out
      end
    in
    remove_vertex t v;
    Array.iter (fun w -> add_edge t u w) nv
  end

(* ------------------------------------------------------------------ *)
(* Construction and bridges                                            *)
(* ------------------------------------------------------------------ *)

let make_raw ~rows ~cap ~labels ~row_caps =
  let words = (cap + 31) lsr 5 in
  let threshold =
    match rows with
    | Auto ->
        (* Memory parity: a dense row costs [words] ints, a sparse row
           one int per neighbor — promote where the two meet. *)
        max 4 words
    | Matrix | Sparse_rows -> max_int
    | Bitset_rows -> 0
    | Threshold n ->
        if n < 0 then invalid_arg "Flat: negative promotion threshold";
        n
  in
  let bits =
    match rows with
    | Matrix ->
        if cap > 65536 then
          invalid_arg
            "Flat: Matrix rows need cap^2 bits; use Auto past 65536 vertices";
        Bytes.make (((cap * cap) + 7) / 8) '\000'
    | Auto | Sparse_rows | Bitset_rows | Threshold _ -> Bytes.empty
  in
  let dense = Array.make cap [||] in
  let summary = Array.make cap [||] in
  let swords = summary_words_of words in
  let adj =
    Array.init cap (fun i ->
        if row_caps.(i) >= threshold then begin
          dense.(i) <- Array.make words 0;
          summary.(i) <- Array.make swords 0;
          [||]
        end
        else Array.make (max 1 row_caps.(i)) 0)
  in
  let t =
    {
      cap;
      words;
      threshold;
      bits;
      adj;
      dense;
      summary;
      len = Array.make cap 0;
      alive = Bytes.make cap '\001';
      nlive = cap;
      nedges = 0;
      labels;
      index_tbl = Hashtbl.create (max 16 cap);
      log = [||];
      log_len = 0;
      ncheck = 0;
      sbuf1 = [||];
      sbuf2 = [||];
      wbuf = [||];
      epoch = 0;
    }
  in
  Array.iteri (fun i l -> Hashtbl.replace t.index_tbl l i) labels;
  t

let create ?(rows = Auto) n =
  if n < 0 then invalid_arg "Flat.create: negative size";
  make_raw ~rows ~cap:n ~labels:(Array.init n Fun.id)
    ~row_caps:(Array.make n 0)

let of_graph ?(rows = Auto) g =
  let labels = Array.of_list (Graph.vertices g) in
  let cap = Array.length labels in
  (* Label -> index translation for the two edge passes below: labels
     arrive sorted, so when their range is dense (the common case —
     vertex ids are small ints) a direct-mapped array beats a hashtable
     lookup per edge endpoint. *)
  let translate =
    if cap = 0 then fun _ -> 0
    else
      let lo = labels.(0) and hi = labels.(cap - 1) in
      if hi - lo < (8 * cap) + 64 then begin
        let map = Array.make (hi - lo + 1) 0 in
        Array.iteri (fun i v -> map.(v - lo) <- i) labels;
        fun v -> Array.unsafe_get map (v - lo)
      end
      else begin
        let tbl = Hashtbl.create (2 * cap) in
        Array.iteri (fun i v -> Hashtbl.add tbl v i) labels;
        Hashtbl.find tbl
      end
  in
  (* Degree pre-pass: exact row capacities, and rows destined to end
     above the promotion threshold are born dense, skipping the sparse
     fill + promotion copy entirely. *)
  let row_caps = Array.make cap 0 in
  Array.iteri
    (fun i u -> row_caps.(i) <- Graph.ISet.cardinal (Graph.neighbors g u))
    labels;
  let t = make_raw ~rows ~cap ~labels ~row_caps in
  (* Single adjacency traversal: each directed visit (u, v) fills u's
     row — the symmetric visit handles the mirror image. *)
  Array.iteri
    (fun iu u ->
      Graph.ISet.iter
        (fun v ->
          let iv = translate v in
          if has_matrix t then set_bit1 t iu iv;
          push_neighbor t iu iv)
        (Graph.neighbors g u))
    labels;
  t.nedges <- Array.fold_left ( + ) 0 t.len / 2;
  t

(* Labels increase with index under every constructor ([create] is the
   identity, [of_graph] numbers the sorted vertex list, [copy] and
   [compact] preserve the order), so live rows come out in vertex order
   and the graph is built in one bulk pass. *)
let to_graph t =
  let rows = ref [] in
  for u = t.cap - 1 downto 0 do
    if is_live t u then
      rows :=
        (t.labels.(u), fold_neighbors t u (fun acc v -> t.labels.(v) :: acc) [])
        :: !rows
  done;
  Graph.of_sorted_adjacency !rows

(* [of_graph (to_graph t)] without the persistent detour: live indices
   are renumbered in label (= index) order, and every row is filled in
   ascending neighbor order — the order [of_graph]'s [ISet.iter] visits
   — by pushing [u] onto each neighbor's row while [u] ascends.  Row
   capacities are the live degrees, so [make_raw] makes the same
   dense/sparse choice per row as [of_graph]'s degree pre-pass.  Only
   reads [t]: no scratch buffer, no epoch bump. *)
let compact ?(rows = Auto) t =
  let renum = Array.make t.cap (-1) in
  let labels = Array.make t.nlive 0 in
  let row_caps = Array.make t.nlive 0 in
  let n = ref 0 in
  iter_live t (fun v ->
      renum.(v) <- !n;
      labels.(!n) <- t.labels.(v);
      row_caps.(!n) <- t.len.(v);
      incr n);
  let c = make_raw ~rows ~cap:t.nlive ~labels ~row_caps in
  iter_live t (fun u ->
      let iu = renum.(u) in
      iter_neighbors t u (fun v ->
          let iv = renum.(v) in
          if has_matrix c then set_bit1 c iv iu;
          push_neighbor c iv iu));
  c.nedges <- t.nedges;
  c

let copy t =
  {
    t with
    bits = Bytes.copy t.bits;
    adj = Array.map Array.copy t.adj;
    dense =
      Array.map (fun d -> if Array.length d = 0 then d else Array.copy d) t.dense;
    summary =
      Array.map
        (fun s -> if Array.length s = 0 then s else Array.copy s)
        t.summary;
    len = Array.copy t.len;
    alive = Bytes.copy t.alive;
    labels = Array.copy t.labels;
    index_tbl = Hashtbl.copy t.index_tbl;
    log = [||];
    log_len = 0;
    ncheck = 0;
    sbuf1 = [||];
    sbuf2 = [||];
    wbuf = [||];
    epoch = 0;
  }

(* ------------------------------------------------------------------ *)
(* Scratch buffers                                                     *)
(* ------------------------------------------------------------------ *)

let scratch1 t =
  if Array.length t.sbuf1 < t.cap then t.sbuf1 <- Array.make t.cap 0;
  t.sbuf1

let scratch2 t =
  if Array.length t.sbuf2 < t.cap then t.sbuf2 <- Array.make t.cap 0;
  t.sbuf2

(* ------------------------------------------------------------------ *)
(* Invariant checking (tests)                                          *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let edges = ref 0 in
  for u = 0 to t.cap - 1 do
    let d = t.dense.(u) in
    if Array.length d <> 0 && has_matrix t then
      fail "vertex %d has a dense row in Matrix mode" u;
    if not (is_live t u) then begin
      if t.len.(u) <> 0 then fail "dead vertex %d has degree %d" u t.len.(u);
      Array.iteri
        (fun i w ->
          if w <> 0 then fail "dead vertex %d has bits in word %d" u i)
        d
    end
    else if Array.length d <> 0 then begin
      let pc = ref 0 in
      for i = 0 to Array.length d - 1 do
        let w = d.(i) in
        if w land lnot 0xFFFFFFFF <> 0 then
          fail "row %d word %d has bits above the 32-bit lane" u i;
        pc := !pc + Bits.popcount w
      done;
      if !pc <> t.len.(u) then
        fail "row %d popcount %d disagrees with degree %d" u !pc t.len.(u);
      let s = t.summary.(u) in
      if Array.length s <> summary_words_of t.words then
        fail "row %d dense without a summary" u;
      for i = 0 to Array.length d - 1 do
        if wget s i <> (d.(i) <> 0) then
          fail "row %d summary bit %d disagrees with its word" u i
      done;
      for i = 0 to Array.length d - 1 do
        let w = ref d.(i) in
        let base = i lsl 5 in
        while !w <> 0 do
          let b = !w land - !w in
          let v = base + bit_index b in
          w := !w lxor b;
          if v >= t.cap then fail "row %d has phantom bit %d past capacity" u v;
          if v = u then fail "self-loop bit on %d" u;
          if not (is_live t v) then fail "edge (%d, %d) to dead vertex" u v;
          if not (row_mem t v u) then fail "asymmetric adjacency (%d, %d)" u v;
          if u < v then incr edges
        done
      done
    end
    else begin
      for i = 0 to t.len.(u) - 1 do
        let v = t.adj.(u).(i) in
        if not (is_live t v) then fail "edge (%d, %d) to dead vertex" u v;
        if has_matrix t && not (get_bit t u v) then
          fail "adjacency (%d, %d) missing bit" u v;
        if not (row_mem t v u) then fail "asymmetric adjacency (%d, %d)" u v;
        if u < v then incr edges;
        for j = i + 1 to t.len.(u) - 1 do
          if t.adj.(u).(j) = v then fail "duplicate neighbor %d of %d" v u
        done
      done;
      if has_matrix t then
        for v = 0 to t.cap - 1 do
          if get_bit t u v then begin
            if not (get_bit t v u) then fail "asymmetric bit (%d, %d)" u v;
            let found = ref false in
            for i = 0 to t.len.(u) - 1 do
              if t.adj.(u).(i) = v then found := true
            done;
            if not !found then fail "bit (%d, %d) without adjacency entry" u v
          end
        done
    end
  done;
  if !edges <> t.nedges then
    fail "edge count drift: counted %d, cached %d" !edges t.nedges

(* One-vertex slice of [check_invariants]: O(degree * probe) for both
   row forms (plus O(words) for the popcount-vs-degree audit of a dense
   row), no allocation, does not claim the scratch buffers (it may run
   from a monitor while a client kernel owns them). *)
let check_vertex t v =
  let fail fmt = Printf.ksprintf failwith fmt in
  if v < 0 || v >= t.cap then
    invalid_arg (Printf.sprintf "Flat.check_vertex: index %d out of range" v);
  let d = t.dense.(v) in
  if not (is_live t v) then begin
    if t.len.(v) <> 0 then fail "dead vertex %d has degree %d" v t.len.(v);
    for i = 0 to Array.length d - 1 do
      if d.(i) <> 0 then fail "dead vertex %d still has adjacency bits" v
    done
  end
  else if Array.length d <> 0 then begin
    let n = ref 0 in
    for i = 0 to Array.length d - 1 do
      let w = ref d.(i) in
      if d.(i) land lnot 0xFFFFFFFF <> 0 then
        fail "row %d word %d has bits above the 32-bit lane" v i;
      let base = i lsl 5 in
      while !w <> 0 do
        let b = !w land - !w in
        let u = base + bit_index b in
        w := !w lxor b;
        incr n;
        if u >= t.cap then fail "row %d has phantom bit %d past capacity" v u;
        if u = v then fail "self-loop bit on %d" v;
        if not (is_live t u) then fail "edge (%d, %d) to dead vertex" v u;
        if not (row_mem t u v) then fail "asymmetric adjacency (%d, %d)" v u
      done
    done;
    if !n <> t.len.(v) then
      fail "row %d popcount %d disagrees with degree %d" v !n t.len.(v);
    let s = t.summary.(v) in
    if Array.length s <> summary_words_of t.words then
      fail "row %d dense without a summary" v;
    for i = 0 to Array.length d - 1 do
      if wget s i <> (d.(i) <> 0) then
        fail "row %d summary bit %d disagrees with its word" v i
    done
  end
  else begin
    let n = t.len.(v) in
    if n < 0 || n > Array.length t.adj.(v) then
      fail "degree %d of %d outside its adjacency row" n v;
    for i = 0 to n - 1 do
      let u = t.adj.(v).(i) in
      if not (is_live t u) then fail "edge (%d, %d) to dead vertex" v u;
      if has_matrix t then begin
        if not (get_bit t v u) then fail "adjacency (%d, %d) missing bit" v u;
        if not (get_bit t u v) then fail "asymmetric bit (%d, %d)" v u
      end;
      if not (row_mem t u v) then fail "asymmetric adjacency (%d, %d)" v u;
      for j = i + 1 to n - 1 do
        if t.adj.(v).(j) = u then fail "duplicate neighbor %d of %d" u v
      done
    done
  end

(* ------------------------------------------------------------------ *)
(* Fault injection (tests)                                             *)
(* ------------------------------------------------------------------ *)

module Fault = struct
  let drop_bit t u v =
    if has_matrix t then clear_bit1 t u v
    else begin
      let d = t.dense.(u) in
      if Array.length d <> 0 then wclear d v
      else begin
        (* Sparse directed drop: overwrite the entry with the last one
           without shrinking the degree, leaving a duplicate. *)
        let a = t.adj.(u) in
        let rec find i = if a.(i) = v then i else find (i + 1) in
        let i = find 0 in
        a.(i) <- a.(t.len.(u) - 1)
      end
    end

  let drop_adjacency t u v = drop_neighbor t u v

  let smash_row_word t v i =
    let d = t.dense.(v) in
    if Array.length d = 0 then
      invalid_arg "Flat.Fault.smash_row_word: row is not dense";
    d.(i) <- d.(i) lxor 0xFFFFFFFF

  let skew_edge_count t d = t.nedges <- t.nedges + d

  let truncate_log t n =
    if n < 0 then invalid_arg "Flat.Fault.truncate_log: negative count";
    t.log_len <- max 0 (t.log_len - n)
end
