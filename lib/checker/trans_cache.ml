(* Transition memoization for the states-graph explorer.

   A step of the states-graph from vertex (ℓ, x) under activation set T
   changes the labeling to δ_T(ℓ) and produces outputs that depend only on
   (ℓ, T) — never on the countdown vector x. The explorer visits each
   labeling ℓ under up to r^n distinct countdowns, so memoizing
   (lab_code, mask) → (next_lab, changed) removes a factor of up to r^n
   reaction-function evaluations from exploration.

   Two observations make each cached transition O(|T|) arithmetic:

   - node [i]'s reaction (its outgoing labels and its output) depends only
     on ℓ, so it is evaluated once per labeling and summarized as a single
     mixed-radix delta [Σ_k (new_e - old_e)·card^(m-1-e)] over [i]'s
     out-edges;
   - distinct nodes own disjoint out-edge sets, hence
     [code(δ_T(ℓ)) = code(ℓ) + Σ_{i∈T} delta_i] — no decoding, copying or
     re-encoding of configurations on the per-mask path.

   Layout: each labeling owns one block of [2n + 2^n] ints —
   [n] per-node deltas, then [n] per-node outputs, then [2^n] memoized
   packed transitions ([next_lab * 2 + changed], -1 when unfilled). Blocks
   live in one flat array. When the label space is small enough it is
   indexed directly by labeling code (one cache line brings a labeling's
   deltas along with its memo slots); beyond that, blocks are appended in
   first-touch order and found through an open-addressing index, so
   memory scales with the labelings an exploration touches, not with the
   label space.

   The arrays live in a {!store} that outlives the cache: the checker
   keeps one per domain, so repeated explorations reuse them instead of
   reallocating. Binding a store shrinks any array that retains more than
   8x what the previous cache used (and more than a floor), so one huge
   exploration does not pin its memory for every later small one.

   Reaction functions are invoked directly on reused scratch buffers, so
   the per-labeling fill allocates nothing beyond what the reactions
   themselves allocate; reactions must not retain their incoming array
   (none in this repository does — [Protocol.apply] hands out a fresh one,
   but the contract only promises the labels of the incoming edges). *)

module Protocol = Stateless_core.Protocol
module Digraph = Stateless_graph.Digraph

(* At most this many words of blocks are indexed directly by labeling code
   (2^22 words = 32 MB); larger label spaces use the sparse index. *)
let flat_table_cap = 1 lsl 22

(* Arrays at or below these sizes are never shrunk. *)
let data_floor = 1 lsl 16
let index_floor = 1 lsl 10

type store = {
  mutable data : int array;  (* blocks, [stride] words each *)
  mutable used : int;  (* words of [data] the bound cache has claimed *)
  mutable filled : Bytes.t;  (* direct index: lab_code -> block filled? *)
  mutable keys : int array;  (* sparse index: lab_code, -1 = empty slot *)
  mutable ids : int array;  (* sparse index: block number, parallel *)
  mutable count : int;  (* sparse index: blocks in use *)
}

let store () =
  {
    data = [||];
    used = 0;
    filled = Bytes.empty;
    keys = [||];
    ids = [||];
    count = 0;
  }

let capacity s = Array.length s.data

type ('x, 'l) t = {
  p : ('x, 'l) Protocol.t;
  input : 'x array;
  n : int;
  m : int;
  card : int;
  pow2n : int;
  stride : int;  (* block size: 2n + 2^n *)
  weight : int array;  (* e -> card^(m-1-e), the digit weight of edge e *)
  dec_tbl : 'l array;  (* code -> label value, avoids decode closures *)
  st : store;
  direct : bool;  (* blocks indexed by labeling code *)
  in_scratch : 'l array array;  (* i -> reused incoming-labels buffer *)
  digits : int array;  (* reused per-fill digit decomposition *)
  mutable hits : int;
  mutable misses : int;
}

(* The new capacity for an array of [cap] slots that held [used] last
   time and needs [need] now: grown to [need] when too small, shrunk to
   [max floor need] when it exceeds [floor] and wastes more than 8x
   what it held and needs. [None] keeps it. *)
let resize ~floor ~cap ~used need =
  if cap < need then Some need
  else if cap > floor && cap > 8 * max used need then Some (max floor need)
  else None

let create st p ~input ~lab_count =
  let n = Protocol.num_nodes p in
  let m = Protocol.num_edges p in
  let space = p.Protocol.space in
  let card = space.Stateless_core.Label.card in
  let weight = Array.make m 1 in
  for e = m - 2 downto 0 do
    weight.(e) <- weight.(e + 1) * card
  done;
  let dec_tbl =
    Array.init card (fun c -> space.Stateless_core.Label.decode c)
  in
  let stride = (2 * n) + (1 lsl n) in
  let direct = lab_count <= flat_table_cap / stride in
  let need = if direct then lab_count * stride else 0 in
  Option.iter
    (fun cap -> st.data <- Array.make cap 0)
    (resize ~floor:data_floor ~cap:(Array.length st.data) ~used:st.used need);
  st.used <- need;
  let flags = if direct then lab_count else 0 in
  (match
     resize ~floor:data_floor ~cap:(Bytes.length st.filled) ~used:flags flags
   with
  | Some cap -> st.filled <- Bytes.make cap '\000'
  | None -> Bytes.fill st.filled 0 flags '\000');
  (* The sparse index is a power of two, at least [index_floor]. *)
  (match
     resize ~floor:index_floor ~cap:(Array.length st.keys)
       ~used:(2 * st.count)
       (if direct then 0 else index_floor)
   with
  | Some cap ->
      st.keys <- Array.make cap (-1);
      st.ids <- Array.make cap 0
  | None ->
      if not direct then Array.fill st.keys 0 (Array.length st.keys) (-1));
  st.count <- 0;
  {
    p;
    input;
    n;
    m;
    card;
    pow2n = 1 lsl n;
    stride;
    weight;
    dec_tbl;
    st;
    direct;
    in_scratch =
      Array.init n (fun i ->
          Array.make (Digraph.in_degree p.Protocol.graph i) dec_tbl.(0));
    digits = Array.make m 0;
    hits = 0;
    misses = 0;
  }

(* Evaluate every reaction function once on labeling [lab_code], writing the
   block at [blk.(off ..)]. *)
let fill t lab_code blk off =
  let p = t.p in
  let encode = p.Protocol.space.Stateless_core.Label.encode in
  let digits = t.digits in
  let rest = ref lab_code in
  for e = t.m - 1 downto 0 do
    Array.unsafe_set digits e (!rest mod t.card);
    rest := !rest / t.card
  done;
  for i = 0 to t.n - 1 do
    let incoming = Array.unsafe_get t.in_scratch i in
    let in_edges = Digraph.in_edges p.Protocol.graph i in
    for k = 0 to Array.length in_edges - 1 do
      let e = Array.unsafe_get in_edges k in
      Array.unsafe_set incoming k
        (Array.unsafe_get t.dec_tbl (Array.unsafe_get digits e))
    done;
    let out, y = p.Protocol.react i t.input.(i) incoming in
    let out_edges = Digraph.out_edges p.Protocol.graph i in
    let delta = ref 0 in
    for k = 0 to Array.length out_edges - 1 do
      let e = Array.unsafe_get out_edges k in
      delta :=
        !delta
        + ((encode out.(k) - Array.unsafe_get digits e)
          * Array.unsafe_get t.weight e)
    done;
    Array.unsafe_set blk (off + i) !delta;
    Array.unsafe_set blk (off + t.n + i) y
  done;
  Array.fill blk (off + (2 * t.n)) t.pow2n (-1)

(* Fibonacci hash of a labeling code into a power-of-two table. *)
let slot_of code mask =
  let h = code * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

let rec probe keys mask code j =
  let k = Array.unsafe_get keys j in
  if k = code || k < 0 then j else probe keys mask code ((j + 1) land mask)

(* Double the sparse index, keeping load at most 1/2. *)
let grow_index st =
  let old_keys = st.keys and old_ids = st.ids in
  let cap = 2 * Array.length old_keys in
  let keys = Array.make cap (-1) and ids = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iteri
    (fun j k ->
      if k >= 0 then begin
        let pos = probe keys mask k (slot_of k mask) in
        keys.(pos) <- k;
        ids.(pos) <- old_ids.(j)
      end)
    old_keys;
  st.keys <- keys;
  st.ids <- ids

(* The memo block of [lab_code], creating it on first touch. Returns the
   backing array and the block's offset within it; the array may be
   replaced by the next call that creates a block. *)
let block t lab_code =
  let st = t.st in
  if t.direct then begin
    let off = lab_code * t.stride in
    if Bytes.unsafe_get st.filled lab_code = '\000' then begin
      Bytes.unsafe_set st.filled lab_code '\001';
      fill t lab_code st.data off
    end;
    (st.data, off)
  end
  else begin
    let mask = Array.length st.keys - 1 in
    let pos = probe st.keys mask lab_code (slot_of lab_code mask) in
    if Array.unsafe_get st.keys pos = lab_code then
      (st.data, Array.unsafe_get st.ids pos * t.stride)
    else begin
      let id = st.count in
      let off = id * t.stride in
      let len = Array.length st.data in
      if off + t.stride > len then begin
        let bigger = Array.make (max (off + t.stride) (2 * len)) 0 in
        Array.blit st.data 0 bigger 0 off;
        st.data <- bigger
      end;
      st.keys.(pos) <- lab_code;
      st.ids.(pos) <- id;
      st.count <- id + 1;
      st.used <- off + t.stride;
      if 2 * st.count > Array.length st.keys then grow_index st;
      fill t lab_code st.data off;
      (st.data, off)
    end
  end

(* [step_in t blk off ~lab_code ~mask] is {!step} with the block lookup
   hoisted out — callers stepping one labeling under many activation sets
   resolve [block] once and reuse [(blk, off)]. *)
let step_in t blk off ~lab_code ~mask =
  let slot = off + (2 * t.n) + mask in
  let cached = Array.unsafe_get blk slot in
  if cached >= 0 then begin
    t.hits <- t.hits + 1;
    cached
  end
  else begin
    t.misses <- t.misses + 1;
    let delta = ref 0 in
    for i = 0 to t.n - 1 do
      if mask land (1 lsl i) <> 0 then
        delta := !delta + Array.unsafe_get blk (off + i)
    done;
    let next_lab = lab_code + !delta in
    let packed = (next_lab * 2) lor (if !delta <> 0 then 1 else 0) in
    Array.unsafe_set blk slot packed;
    packed
  end

(* [step t ~lab_code ~mask] is [next_lab * 2 + changed] for the transition
   of labeling [lab_code] under activation set [mask]. *)
let step t ~lab_code ~mask =
  let blk, off = block t lab_code in
  step_in t blk off ~lab_code ~mask

(* [output t ~lab_code ~node] is the output value node [node] produces when
   activated on labeling [lab_code] — independent of the activation set. *)
let output t ~lab_code ~node =
  let blk, off = block t lab_code in
  blk.(off + t.n + node)

let hits t = t.hits
let misses t = t.misses
let add_hits t k = t.hits <- t.hits + k
let add_misses t k = t.misses <- t.misses + k
