module Digraph = Stateless_graph.Digraph

(* Evaluation strategies, decided per node at [create] time. *)
let mode_table = 0
let mode_memo = 1
let mode_raw = 2

let default_max_table_words = 1 lsl 22
let default_max_memo_entries = 4096
let max_decode_table = 1 lsl 16

(* Per-node sparse reaction memo: one direct-mapped int array, allocated on
   the node's first miss. Slot [j] holds an incoming code at
   [j * (width + 1)] (-1 = empty) with that code's row right after it, so a
   hit is one index, one compare and reads from the same cache lines.
   [memo_mask.(i)] picks the slot: when all of node [i]'s distinct codes
   fit within [max_memo_entries] slots and [memo_max_words] words it is
   [lnot rows] and the slot is the code itself, which never collides;
   otherwise it is [slots - 1] for the largest power of two within both
   caps and the slot is a hash of the code. A colliding code overwrites
   the slot: a row is a pure function of its incoming code, so eviction
   costs a recomputation and nothing else. The memos of one kernel share a
   budget of [default_max_table_words] words; a node whose slots no longer
   fit what is left gets the largest power of two of hashed slots that
   does, at least one. *)
let memo_max_words = 1 lsl 14

let memo_hash code =
  let h = code * 0x9E3779B1 in
  h lxor (h lsr 17)

(* Largest power of two <= [x], for [x >= 1]. *)
let pow2_floor x =
  let rec go p = if 2 * p > x then p else go (2 * p) in
  go 1

(* Labelings met at schedule phase 0 during one [run_until_stable], each
   with the step it was first met at: open addressing over int keys. When
   [card^m] fits an int the key is the labeling's mixed-radix code, which is
   exact; otherwise it is a hash, and a hit is confirmed against the
   labeling itself, copied into [arena]. A reset clears only the slots in
   use. *)
type visits = {
  mutable slots : int array; (* entry index, -1 = empty; power-of-two length *)
  mutable keys : int array; (* per entry *)
  mutable steps : int array; (* per entry: step of the first visit *)
  mutable homes : int array; (* per entry: the slot it occupies *)
  mutable arena : int array; (* hashed keys only: entry [k] at [k * m] *)
  mutable used : int;
}

(* The packed outcome of {!run_until_stable}. *)
type verdict =
  | Stabilized of int
  | Oscillating of { entered : int; period : int }
  | Exhausted

type ('x, 'l) t = {
  p : ('x, 'l) Protocol.t;
  input : 'x array;
  n : int;
  m : int;
  card : int;
  (* CSR edge incidence: node [i]'s in-edge ids are
     [in_flat.(in_off.(i)) .. in_flat.(in_off.(i+1) - 1)]; same for out. *)
  in_off : int array;
  in_flat : int array;
  out_off : int array;
  out_flat : int array;
  mode : int array;
  (* mode_table: [rows * (out_degree + 1)] ints per node — out-edge codes
     then the output — with a per-row fill flag; rows are computed on first
     visit, so sparse trajectories never pay for the full table. *)
  tables : int array array;
  filled : Bytes.t array;
  (* mode_memo: the direct-mapped slots ([||] until the first miss) and
     how a code picks its slot (see [memo_max_words]). *)
  memo : int array array;
  memo_mask : int array;
  mutable memo_words_left : int;
  (* Reused row for mode_raw. *)
  scratch_row : int array array;
  in_scratch : 'l array array;
  dec_tbl : 'l array; (* [||] when the space is too large to tabulate *)
  (* [run_into]'s second buffer; with [pair_*] (allocated on first use)
     also the two buffers [run_until_stable] and [settle] step through,
     [cur_*] being the current state and [nxt_*] the other one. *)
  spare_labels : int array;
  spare_outputs : int array;
  mutable pair_labels : int array;
  mutable pair_outputs : int array;
  mutable cur_labels : int array;
  mutable cur_outputs : int array;
  mutable nxt_labels : int array;
  mutable nxt_outputs : int array;
  (* The boxed entry points' encoded init, allocated on first use. *)
  mutable init_labels : int array;
  mutable init_outputs : int array;
  visits : visits;
  hashed_visits : bool; (* [card^m] overflows an int *)
  mutable hist : int array; (* outputs history scratch for [settle] *)
  mutable entry : int; (* cycle entry of the last settle, -1 if none *)
  (* Full-coverage active-set detection (see [covers_all]). *)
  seen_stamp : int array;
  mutable stamp : int;
  mutable full_active : int list;
}

let num_nodes t = t.n
let num_edges t = t.m

let decode_label t code =
  if Array.length t.dec_tbl > 0 then t.dec_tbl.(code)
  else t.p.Protocol.space.Label.decode code

let csr_of n degree edges_of =
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + degree i
  done;
  let flat = Array.make off.(n) 0 in
  for i = 0 to n - 1 do
    let es = edges_of i in
    Array.iteri (fun k e -> flat.(off.(i) + k) <- e) es
  done;
  (off, flat)

let create ?(max_table_words = default_max_table_words)
    ?(max_memo_entries = default_max_memo_entries) p ~input =
  let n = Protocol.num_nodes p in
  let m = Protocol.num_edges p in
  if Array.length input <> n then
    invalid_arg "Kernel.create: input length must match node count";
  let card = p.Protocol.space.Label.card in
  let g = p.Protocol.graph in
  let in_off, in_flat =
    csr_of n (fun i -> Digraph.in_degree g i) (fun i -> Digraph.in_edges g i)
  in
  let out_off, out_flat =
    csr_of n (fun i -> Digraph.out_degree g i) (fun i -> Digraph.out_edges g i)
  in
  let dec_tbl =
    if card <= max_decode_table then
      Array.init card p.Protocol.space.Label.decode
    else [||]
  in
  let mode = Array.make n mode_raw in
  let tables = Array.make n [||] in
  let filled = Array.make n Bytes.empty in
  let memo_mask = Array.make n 0 in
  let scratch_row = Array.make n [||] in
  let in_scratch = Array.make n [||] in
  let budget = ref max_table_words in
  for i = 0 to n - 1 do
    let din = in_off.(i + 1) - in_off.(i) in
    let width = out_off.(i + 1) - out_off.(i) + 1 in
    scratch_row.(i) <- Array.make width 0;
    in_scratch.(i) <-
      (if din = 0 then [||]
       else Array.make din (p.Protocol.space.Label.decode 0));
    (* rows = card^din, [None] on int overflow. *)
    let rows =
      let rec go acc k =
        if k = 0 then Some acc
        else if acc > max_int / card then None
        else go (acc * card) (k - 1)
      in
      go 1 din
    in
    match rows with
    | Some rows when rows <= !budget / width ->
        mode.(i) <- mode_table;
        tables.(i) <- Array.make (rows * width) 0;
        filled.(i) <- Bytes.make rows '\000';
        budget := !budget - (rows * width)
    | Some rows when max_memo_entries > 0 ->
        mode.(i) <- mode_memo;
        let cap = min max_memo_entries (memo_max_words / (width + 1)) in
        memo_mask.(i) <-
          (if rows <= cap then lnot rows else pow2_floor (max 1 cap) - 1)
    | _ -> mode.(i) <- mode_raw
  done;
  {
    p;
    input;
    n;
    m;
    card;
    in_off;
    in_flat;
    out_off;
    out_flat;
    mode;
    tables;
    filled;
    memo = Array.make n [||];
    memo_mask;
    memo_words_left = default_max_table_words;
    scratch_row;
    in_scratch;
    dec_tbl;
    spare_labels = Array.make m 0;
    spare_outputs = Array.make n 0;
    pair_labels = [||];
    pair_outputs = [||];
    cur_labels = [||];
    cur_outputs = [||];
    nxt_labels = [||];
    nxt_outputs = [||];
    init_labels = [||];
    init_outputs = [||];
    visits =
      {
        slots = [||];
        keys = [||];
        steps = [||];
        homes = [||];
        arena = [||];
        used = 0;
      };
    hashed_visits = Protocol.labelings_count p = None;
    hist = [||];
    entry = -1;
    seen_stamp = Array.make (max n 1) 0;
    stamp = 0;
    full_active = [ -1 ];
  }

(* Decode the incoming codes of node [i] from [src] into its reused label
   scratch, run the reaction once, and encode the results into [row] at
   [off] (out-edge codes, then the output). *)
let fill_row t i src row off =
  let lo = t.in_off.(i) and hi = t.in_off.(i + 1) in
  let inc = t.in_scratch.(i) in
  for k = lo to hi - 1 do
    inc.(k - lo) <- decode_label t (Array.unsafe_get src t.in_flat.(k))
  done;
  let out, y = t.p.Protocol.react i t.input.(i) inc in
  let d = t.out_off.(i + 1) - t.out_off.(i) in
  if Array.length out <> d then
    invalid_arg "Kernel: reaction arity does not match out-degree";
  let encode = t.p.Protocol.space.Label.encode in
  for k = 0 to d - 1 do
    row.(off + k) <- encode out.(k)
  done;
  row.(off + d) <- y

(* [fill_row] driven by the packed incoming code alone: the per-edge
   digits are recovered by reverse divmod (the code packs them
   most-significant first, exactly as [in_code] builds it), decoded into
   the same scratch and fed to the same reaction — bit-identical rows, no
   source buffer. Used by the memo tier. *)
let fill_row_coded t i code row off =
  let din = t.in_off.(i + 1) - t.in_off.(i) in
  let inc = t.in_scratch.(i) in
  let card = t.card in
  let c = ref code in
  for k = din - 1 downto 0 do
    inc.(k) <- decode_label t (!c mod card);
    c := !c / card
  done;
  let out, y = t.p.Protocol.react i t.input.(i) inc in
  let d = t.out_off.(i + 1) - t.out_off.(i) in
  if Array.length out <> d then
    invalid_arg "Kernel: reaction arity does not match out-degree";
  let encode = t.p.Protocol.space.Label.encode in
  for k = 0 to d - 1 do
    row.(off + k) <- encode out.(k)
  done;
  row.(off + d) <- y

let in_code t i src =
  let flat = t.in_flat in
  let card = t.card in
  let c = ref 0 in
  for k = Array.unsafe_get t.in_off i to Array.unsafe_get t.in_off (i + 1) - 1
  do
    c := (!c * card) + Array.unsafe_get src (Array.unsafe_get flat k)
  done;
  !c

(* Node [i]'s memo slots, allocated on its first miss within what is left
   of the kernel's memo budget. *)
let memo_table t i =
  let mm = Array.unsafe_get t.memo i in
  if Array.length mm > 0 then mm
  else begin
    let w1 = t.out_off.(i + 1) - t.out_off.(i) + 2 in
    let mask = t.memo_mask.(i) in
    let want = if mask < 0 then lnot mask else mask + 1 in
    let slots =
      if want * w1 <= t.memo_words_left then want
      else begin
        let s = pow2_floor (max 1 (t.memo_words_left / w1)) in
        t.memo_mask.(i) <- s - 1;
        s
      end
    in
    t.memo_words_left <- max 0 (t.memo_words_left - (slots * w1));
    let mm = Array.make (slots * w1) (-1) in
    t.memo.(i) <- mm;
    mm
  end

(* Offset of [code]'s row in node [i]'s memo [mm], computed into its slot
   on a miss. The key is cleared while the row is rewritten, so a raising
   reaction cannot leave a stale key over a half-written row. *)
let memo_lookup t i mm code =
  let w1 =
    Array.unsafe_get t.out_off (i + 1) - Array.unsafe_get t.out_off i + 2
  in
  let mask = Array.unsafe_get t.memo_mask i in
  let slot = (if mask < 0 then code else memo_hash code land mask) * w1 in
  if Array.unsafe_get mm slot <> code then begin
    Array.unsafe_set mm slot (-1);
    fill_row_coded t i code mm (slot + 1);
    Array.unsafe_set mm slot code
  end;
  slot + 1

(* The array holding node [i]'s reaction rows: its table, its memo or its
   scratch row. *)
let row_array t i =
  let mode = Array.unsafe_get t.mode i in
  if mode = mode_table then Array.unsafe_get t.tables i
  else if mode = mode_memo then memo_table t i
  else Array.unsafe_get t.scratch_row i

(* Offset in [row] (= [row_array t i]) of node [i]'s reaction to [src]: the
   out-edge codes, then the output. Computes the row on a miss. *)
let row_offset t ~src ~i row =
  let mode = Array.unsafe_get t.mode i in
  if mode = mode_table then begin
    let code = in_code t i src in
    let base = code * (t.out_off.(i + 1) - t.out_off.(i) + 1) in
    let flags = Array.unsafe_get t.filled i in
    if Bytes.unsafe_get flags code = '\000' then begin
      fill_row t i src row base;
      Bytes.unsafe_set flags code '\001'
    end;
    base
  end
  else if mode = mode_memo then memo_lookup t i row (in_code t i src)
  else begin
    fill_row t i src row 0;
    0
  end

(* The hot loop: the table and raw tiers inlined so that a warm step
   allocates nothing — no [(row, base)] pair, no closure over the active
   list. *)
let rec apply_active t src dst dst_outputs active =
  match active with
  | [] -> ()
  | i :: rest ->
      let olo = Array.unsafe_get t.out_off i in
      let d = Array.unsafe_get t.out_off (i + 1) - olo in
      let oflat = t.out_flat in
      (if Array.unsafe_get t.mode i = mode_table then begin
         let code = in_code t i src in
         let base = code * (d + 1) in
         let tbl = Array.unsafe_get t.tables i in
         let flags = Array.unsafe_get t.filled i in
         if Bytes.unsafe_get flags code = '\000' then begin
           fill_row t i src tbl base;
           Bytes.unsafe_set flags code '\001'
         end;
         for k = 0 to d - 1 do
           Array.unsafe_set dst
             (Array.unsafe_get oflat (olo + k))
             (Array.unsafe_get tbl (base + k))
         done;
         Array.unsafe_set dst_outputs i (Array.unsafe_get tbl (base + d))
       end
       else if Array.unsafe_get t.mode i = mode_memo then begin
         let mm = memo_table t i in
         let base = memo_lookup t i mm (in_code t i src) in
         for k = 0 to d - 1 do
           Array.unsafe_set dst
             (Array.unsafe_get oflat (olo + k))
             (Array.unsafe_get mm (base + k))
         done;
         Array.unsafe_set dst_outputs i (Array.unsafe_get mm (base + d))
       end
       else begin
         let row = Array.unsafe_get t.scratch_row i in
         fill_row t i src row 0;
         for k = 0 to d - 1 do
           Array.unsafe_set dst
             (Array.unsafe_get oflat (olo + k))
             (Array.unsafe_get row k)
         done;
         Array.unsafe_set dst_outputs i (Array.unsafe_get row d)
       end);
      apply_active t src dst dst_outputs rest

(* When the active set covers every node, every edge (each edge is some
   node's out-edge) and every output slot is rewritten by [apply_active],
   so the carry-over blits are dead work. The check stamps each listed node
   once; the winning list is memoized by physical identity, which makes the
   test a single pointer compare for schedules that reuse one list (e.g.
   {!Schedule.synchronous}). *)
let covers_all t active =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let seen = t.seen_stamp in
  let rec go cnt = function
    | [] -> cnt = t.n
    | i :: rest ->
        if Array.unsafe_get seen i = stamp then go cnt rest
        else begin
          Array.unsafe_set seen i stamp;
          go (cnt + 1) rest
        end
  in
  go 0 active

let step_into t ~src ~src_outputs ~dst ~dst_outputs ~active =
  (if active == t.full_active then ()
   else if covers_all t active then t.full_active <- active
   else begin
     Array.blit src 0 dst 0 t.m;
     Array.blit src_outputs 0 dst_outputs 0 t.n
   end);
  apply_active t src dst dst_outputs active

let load t config ~labels ~outputs =
  if Array.length labels <> t.m || Array.length outputs <> t.n then
    invalid_arg "Kernel.load: buffer sizes must match the protocol";
  let encode = t.p.Protocol.space.Label.encode in
  for e = 0 to t.m - 1 do
    labels.(e) <- encode config.Protocol.labels.(e)
  done;
  Array.blit config.Protocol.outputs 0 outputs 0 t.n

let store t ~labels ~outputs =
  {
    Protocol.labels = Array.init t.m (fun e -> decode_label t labels.(e));
    outputs = Array.copy outputs;
  }

let step t config ~active =
  let labels = Array.make t.m 0 and outputs = Array.make t.n 0 in
  let dst = Array.make t.m 0 and dst_outputs = Array.make t.n 0 in
  load t config ~labels ~outputs;
  step_into t ~src:labels ~src_outputs:outputs ~dst ~dst_outputs ~active;
  store t ~labels:dst ~outputs:dst_outputs

let run_into t ~labels ~outputs ~schedule ~steps =
  if steps > 0 then begin
    let active = schedule.Schedule.active in
    let cur = ref labels and curo = ref outputs in
    let nxt = ref t.spare_labels and nxto = ref t.spare_outputs in
    for s = 0 to steps - 1 do
      step_into t ~src:!cur ~src_outputs:!curo ~dst:!nxt ~dst_outputs:!nxto
        ~active:(active s);
      let tl = !cur and to_ = !curo in
      cur := !nxt;
      curo := !nxto;
      nxt := tl;
      nxto := to_
    done;
    if !cur != labels then begin
      Array.blit !cur 0 labels 0 t.m;
      Array.blit !curo 0 outputs 0 t.n
    end
  end

let run t ~init ~schedule ~steps =
  let labels = Array.make t.m 0 and outputs = Array.make t.n 0 in
  load t init ~labels ~outputs;
  run_into t ~labels ~outputs ~schedule ~steps;
  store t ~labels ~outputs

(* Same stability predicate as {!Protocol.is_stable}, read off the packed
   state: every node's reaction must rewrite its out-edges unchanged. *)
let is_stable_packed t src =
  let stable = ref true and i = ref 0 in
  while !stable && !i < t.n do
    let node = !i in
    let row = row_array t node in
    let base = row_offset t ~src ~i:node row in
    let olo = t.out_off.(node) in
    let d = t.out_off.(node + 1) - olo in
    let k = ref 0 in
    while !stable && !k < d do
      if
        Array.unsafe_get row (base + !k)
        <> Array.unsafe_get src (Array.unsafe_get t.out_flat (olo + !k))
      then stable := false;
      incr k
    done;
    incr i
  done;
  !stable

let is_stable t ~labels = is_stable_packed t labels

(* Node [i]'s output when reacting to the packed labeling [labels] — the
   settle refresh at a stable horizon. *)
let node_output t ~labels ~i =
  let row = row_array t i in
  row.(row_offset t ~src:labels ~i row + t.out_off.(i + 1) - t.out_off.(i))

(* ------------------------------------------------------------------ *)
(* Verdicts and settling: one packed core                              *)
(* ------------------------------------------------------------------ *)

(* The visit-table key of a labeling (see [visits]). *)
let labeling_key t labels =
  let c = ref 0 in
  if t.hashed_visits then
    for e = 0 to t.m - 1 do
      c := memo_hash (!c lxor Array.unsafe_get labels e)
    done
  else
    for e = 0 to t.m - 1 do
      c := (!c * t.card) + Array.unsafe_get labels e
    done;
  !c

let grown a len =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Re-insert every entry into a slot array of [cap] (a power of two). *)
let visits_rehash v cap =
  let slots = Array.make cap (-1) and mask = cap - 1 in
  for k = 0 to v.used - 1 do
    let j = ref (memo_hash v.keys.(k) land mask) in
    while slots.(!j) >= 0 do
      j := (!j + 1) land mask
    done;
    slots.(!j) <- k;
    v.homes.(k) <- !j
  done;
  v.slots <- slots

let visits_reset v =
  for k = 0 to v.used - 1 do
    v.slots.(v.homes.(k)) <- -1
  done;
  v.used <- 0

(* [visit t labels s] is the step at which [labels] was first met in this
   run, or -1 after recording it as met at step [s]. *)
let visit t labels s =
  let v = t.visits in
  if v.used = Array.length v.keys then begin
    let cap = max 32 (2 * v.used) in
    v.keys <- grown v.keys cap;
    v.steps <- grown v.steps cap;
    v.homes <- grown v.homes cap;
    if t.hashed_visits then v.arena <- grown v.arena (cap * t.m)
  end;
  if 2 * (v.used + 1) > Array.length v.slots then
    visits_rehash v (max 64 (2 * Array.length v.slots));
  let key = labeling_key t labels in
  let mask = Array.length v.slots - 1 in
  let j = ref (memo_hash key land mask) and found = ref (-1) in
  while !found < 0 && v.slots.(!j) >= 0 do
    let k = v.slots.(!j) in
    if
      v.keys.(k) = key
      && ((not t.hashed_visits)
         ||
         let base = k * t.m and e = ref 0 in
         while !e < t.m && v.arena.(base + !e) = labels.(!e) do
           incr e
         done;
         !e = t.m)
    then found := k
    else j := (!j + 1) land mask
  done;
  if !found >= 0 then v.steps.(!found)
  else begin
    let k = v.used in
    v.slots.(!j) <- k;
    v.keys.(k) <- key;
    v.steps.(k) <- s;
    v.homes.(k) <- !j;
    if t.hashed_visits then Array.blit labels 0 v.arena (k * t.m) t.m;
    v.used <- k + 1;
    -1
  end

(* Point [cur_*] at a copy of the init held in [labels]/[outputs] (which
   are never written) and [nxt_*] at the other kernel-owned pair. *)
let restart t ~labels ~outputs =
  if Array.length t.pair_labels <> t.m || Array.length t.pair_outputs <> t.n
  then begin
    t.pair_labels <- Array.make t.m 0;
    t.pair_outputs <- Array.make t.n 0
  end;
  t.cur_labels <- t.pair_labels;
  t.cur_outputs <- t.pair_outputs;
  t.nxt_labels <- t.spare_labels;
  t.nxt_outputs <- t.spare_outputs;
  Array.blit labels 0 t.cur_labels 0 t.m;
  Array.blit outputs 0 t.cur_outputs 0 t.n

(* One step of [schedule] (step index [s]) from [cur_*] into [nxt_*], which
   then swap. *)
let advance t schedule s =
  step_into t ~src:t.cur_labels ~src_outputs:t.cur_outputs ~dst:t.nxt_labels
    ~dst_outputs:t.nxt_outputs ~active:(schedule.Schedule.active s);
  let l = t.cur_labels and o = t.cur_outputs in
  t.cur_labels <- t.nxt_labels;
  t.cur_outputs <- t.nxt_outputs;
  t.nxt_labels <- l;
  t.nxt_outputs <- o

(* Whether the last [advance] left the labeling unchanged. *)
let unchanged t =
  let e = ref 0 in
  while
    !e < t.m
    && Array.unsafe_get t.cur_labels !e = Array.unsafe_get t.nxt_labels !e
  do
    incr e
  done;
  !e = t.m

(* {!Engine.run_until_stable}'s loop. Deterministic dynamics: if the
   labeling recurs at the same schedule phase, the run repeats that segment
   forever, and the segment contains a label change iff the labeling
   sequence diverges. If it contains none, the labeling has been constant
   since [last_change], and the run is re-played to that step. *)
let rec verdict_loop t ~labels ~outputs ~schedule ~period ~max_steps s
    last_change =
  if is_stable_packed t t.cur_labels then Stabilized s
  else if s >= max_steps then Exhausted
  else begin
    let t0 =
      if period > 0 && s mod period = 0 then visit t t.cur_labels s else -1
    in
    if t0 < 0 then begin
      advance t schedule s;
      verdict_loop t ~labels ~outputs ~schedule ~period ~max_steps (s + 1)
        (if unchanged t then last_change else s + 1)
    end
    else if last_change > t0 then
      Oscillating { entered = t0; period = s - t0 }
    else begin
      restart t ~labels ~outputs;
      for s = 0 to last_change - 1 do
        advance t schedule s
      done;
      Stabilized last_change
    end
  end

(* The verdict from the packed init in [labels]/[outputs]; [cur_*] then
   hold the configuration {!Engine.run_until_stable} returns with it. *)
let verdict t ~labels ~outputs ~schedule ~max_steps =
  restart t ~labels ~outputs;
  visits_reset t.visits;
  let period = match schedule.Schedule.period with Some q -> q | None -> 0 in
  verdict_loop t ~labels ~outputs ~schedule ~period ~max_steps 0 0

let rows_equal hist n r1 r2 =
  let j = ref 0 in
  while
    !j < n
    && Array.unsafe_get hist ((r1 * n) + !j)
       = Array.unsafe_get hist ((r2 * n) + !j)
  do
    incr j
  done;
  !j = n

(* {!Engine.settle} on the packed init: the settle time, or -1 when the
   run does not output-stabilize. The replay to the certification horizon
   records only the per-step output vectors — row [s] of [hist] is the
   output vector after [s] steps — and leaves the horizon state in
   [cur_*] and the cycle entry (-1 if none) in [entry]. *)
let settle_time t ~labels ~outputs ~schedule ~max_steps =
  let horizon, entry =
    match verdict t ~labels ~outputs ~schedule ~max_steps with
    | Exhausted -> (-1, -1)
    | Stabilized rounds ->
        let slack_period =
          match schedule.Schedule.period with Some q -> q | None -> 1
        in
        (rounds + (max 1 t.n * slack_period), -1)
    | Oscillating { entered; period } -> (entered + (2 * period), entered)
  in
  if horizon < 0 then -1
  else begin
    let n = t.n in
    let need = (horizon + 1) * n in
    if Array.length t.hist < need then t.hist <- Array.make need 0;
    let hist = t.hist in
    restart t ~labels ~outputs;
    Array.blit t.cur_outputs 0 hist 0 n;
    for s = 0 to horizon - 1 do
      advance t schedule s;
      Array.blit t.cur_outputs 0 hist ((s + 1) * n) n
    done;
    t.entry <- entry;
    (* Through a cycle the outputs must stay constant, from one step after
       its entry to the horizon, for the run to output-stabilize. *)
    let constant = ref true in
    if entry >= 0 then
      for s = entry + 2 to horizon do
        if not (rows_equal hist n s (entry + 1)) then constant := false
      done;
    if not !constant then -1
    else begin
      let first = ref horizon in
      while !first > 0 && rows_equal hist n (!first - 1) horizon do
        decr first
      done;
      !first
    end
  end

let check_buffers t what ~labels ~outputs =
  if Array.length labels <> t.m || Array.length outputs <> t.n then
    invalid_arg ("Kernel." ^ what ^ ": buffer sizes must match the protocol")

let run_until_stable_codes t ~labels ~outputs ~schedule ~max_steps =
  check_buffers t "run_until_stable_codes" ~labels ~outputs;
  verdict t ~labels ~outputs ~schedule ~max_steps

let settle_codes t ~labels ~outputs ~schedule ~max_steps =
  check_buffers t "settle_codes" ~labels ~outputs;
  let s = settle_time t ~labels ~outputs ~schedule ~max_steps in
  if s < 0 then None else Some s

(* The boxed entry points encode their init into kernel-owned buffers and
   box only what their result type returns. *)
let load_init t init =
  if Array.length t.init_labels <> t.m || Array.length t.init_outputs <> t.n
  then begin
    t.init_labels <- Array.make t.m 0;
    t.init_outputs <- Array.make t.n 0
  end;
  load t init ~labels:t.init_labels ~outputs:t.init_outputs

let current t = store t ~labels:t.cur_labels ~outputs:t.cur_outputs

let run_until_stable t ~init ~schedule ~max_steps =
  load_init t init;
  match
    verdict t ~labels:t.init_labels ~outputs:t.init_outputs ~schedule
      ~max_steps
  with
  | Stabilized rounds -> Engine.Stabilized { rounds; config = current t }
  | Oscillating { entered; period } -> Engine.Oscillating { entered; period }
  | Exhausted -> Engine.Exhausted (current t)

let settle t ~init ~schedule ~max_steps =
  load_init t init;
  let settle_time =
    settle_time t ~labels:t.init_labels ~outputs:t.init_outputs ~schedule
      ~max_steps
  in
  if settle_time < 0 then None
  else
    let settled_outputs =
      if t.entry < 0 then
        (* Labels are stable at the horizon; refresh so every node has
           reported. *)
        Array.init t.n (fun i -> node_output t ~labels:t.cur_labels ~i)
      else Array.sub t.hist ((t.entry + 1) * t.n) t.n
    in
    Some { Engine.settle_time; settled_outputs; horizon_config = current t }
