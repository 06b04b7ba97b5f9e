(* Compressed-sparse-row storage for the states-graph.

   The seed explorer kept one boxed [int array] of (succ, mask, changed)
   triples per state — three words of header plus a pointer chase per state,
   built through an intermediate list. Here all edges live in a single flat
   int buffer: edge k of state [id] is the packed word

     cells.(offsets.(id) + k) = (succ << (n+1)) | (mask << 1) | changed

   and [offsets] (length rows+1) delimits each state's slice. Rows must be
   appended in state-id order, which the explorer's breadth-first interning
   guarantees. Tarjan, the witness BFS and the output-conflict scan all read
   the buffer directly through unsafe accessors. *)

type t = {
  mutable shift : int;  (* n + 1: bits holding (mask << 1) | changed *)
  mutable max_succ : int;  (* largest id packable without overflow *)
  offsets : int Vec.t;  (* row boundaries; offsets.(0) = 0 *)
  cells : int Vec.t;  (* packed edge words *)
}

(* Buffers at or below these sizes are never shrunk by [reset]. *)
let row_floor = 1 lsl 16
let edge_floor = 1 lsl 19

let pack t ~n =
  if n < 1 || n > 20 then invalid_arg "Csr: need 1 <= n <= 20";
  t.shift <- n + 1;
  t.max_succ <- (max_int lsr t.shift) - 1

let create ~n ?(capacity = 16) () =
  let t =
    {
      shift = 1;
      max_succ = 0;
      offsets = Vec.create ~capacity:(capacity + 1) ~dummy:0 ();
      cells = Vec.create ~capacity:(4 * capacity) ~dummy:0 ();
    }
  in
  pack t ~n;
  Vec.push t.offsets 0;
  t

(* Forget all rows and re-pack for [n] nodes, keeping the buffers unless
   they waste more than 8x the previous graph's size. *)
let reset t ~n =
  pack t ~n;
  Vec.recycle t.offsets ~floor:row_floor;
  Vec.push t.offsets 0;
  Vec.recycle t.cells ~floor:edge_floor

let edge_capacity t = Vec.capacity t.cells

let rows t = Vec.length t.offsets - 1
let num_edges t = Vec.length t.cells

(* Append one edge to the row currently being built. *)
let push_edge t ~succ ~mask ~changed =
  if succ < 0 || succ > t.max_succ then
    invalid_arg "Csr.push_edge: successor id does not fit the packing";
  Vec.push t.cells ((succ lsl t.shift) lor (mask lsl 1) lor changed)

(* Largest successor id that the word packing can hold; callers that bound
   their ids once up front may then use {!unsafe_push_edge}. *)
let max_succ t = t.max_succ

(* Make room for [extra] more edges, enabling {!unsafe_push_edge}. *)
let reserve_edges t extra = Vec.reserve t.cells extra

(* {!push_edge} without the overflow check or capacity growth: the caller
   has checked ids against {!max_succ} and reserved space. *)
let unsafe_push_edge t ~succ ~mask ~changed =
  Vec.unsafe_push t.cells ((succ lsl t.shift) lor (mask lsl 1) lor changed)

(* Seal the current row: all edges pushed since the previous [end_row]
   belong to state [rows t]. *)
let end_row t = Vec.push t.offsets (Vec.length t.cells)

let degree t id =
  Vec.unsafe_get t.offsets (id + 1) - Vec.unsafe_get t.offsets id

(* Word-level access for hot loops: fetch a row's packed words once and
   unpack the fields locally instead of re-reading per field. *)
let row_start t id = Vec.unsafe_get t.offsets id
let cell t j = Vec.unsafe_get t.cells j
let succ_of_word t w = w lsr t.shift
let mask_of_word t w = (w lsr 1) land ((1 lsl (t.shift - 1)) - 1)
let changed_of_word w = w land 1

let word t id k = Vec.unsafe_get t.cells (Vec.unsafe_get t.offsets id + k)
let succ t id k = succ_of_word t (word t id k)
let mask t id k = mask_of_word t (word t id k)
let changed t id k = changed_of_word (word t id k)
