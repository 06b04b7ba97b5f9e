module Digraph = Stateless_graph.Digraph

(* Evaluation strategies, decided per node at [create] time. *)
let mode_table = 0
let mode_memo = 1
let mode_raw = 2

let default_max_table_words = 1 lsl 22
let default_max_memo_entries = 1 lsl 18
let max_decode_table = 1 lsl 16

(* Per-node sparse reaction memo: open-addressing (linear probing,
   power-of-two capacity) from the packed incoming code to a row index in
   an append-only flat row store. A hit is two array reads — no polymorphic
   hashing, no bucket chasing, no allocation. *)
type memo = {
  mutable keys : int array; (* incoming codes; -1 = empty slot *)
  mutable slot : int array; (* row index, parallel to [keys] *)
  mutable rows : int array; (* [nrows * width] ints used *)
  mutable nrows : int;
}

let memo_hash code =
  let h = code * 0x9E3779B1 in
  h lxor (h lsr 17)

(* Returns the slot holding [code], or [lnot insertion_slot] on miss. *)
let rec memo_probe keys mask code j =
  let k = Array.unsafe_get keys j in
  if k = code then j
  else if k < 0 then lnot j
  else memo_probe keys mask code ((j + 1) land mask)

let memo_grow mm =
  let old_keys = mm.keys and old_slot = mm.slot in
  let cap = 2 * Array.length old_keys in
  let keys = Array.make cap (-1) and slot = Array.make cap 0 in
  let mask = cap - 1 in
  Array.iteri
    (fun j k ->
      if k >= 0 then begin
        let pos = lnot (memo_probe keys mask k (memo_hash k land mask)) in
        keys.(pos) <- k;
        slot.(pos) <- old_slot.(j)
      end)
    old_keys;
  mm.keys <- keys;
  mm.slot <- slot

(* Reserve the row for [code] and return its base offset (caller fills). *)
let memo_add mm width code =
  if 2 * (mm.nrows + 1) > Array.length mm.keys then memo_grow mm;
  let mask = Array.length mm.keys - 1 in
  let pos = lnot (memo_probe mm.keys mask code (memo_hash code land mask)) in
  mm.keys.(pos) <- code;
  mm.slot.(pos) <- mm.nrows;
  let need = (mm.nrows + 1) * width in
  if Array.length mm.rows < need then begin
    let bigger = Array.make (max need (2 * Array.length mm.rows)) 0 in
    Array.blit mm.rows 0 bigger 0 (mm.nrows * width);
    mm.rows <- bigger
  end;
  let base = mm.nrows * width in
  mm.nrows <- mm.nrows + 1;
  base

let empty_memo () = { keys = [||]; slot = [||]; rows = [||]; nrows = 0 }

let fresh_memo width =
  {
    keys = Array.make 64 (-1);
    slot = Array.make 64 0;
    rows = Array.make (16 * width) 0;
    nrows = 0;
  }

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
  memo : memo array; (* mode_memo, bounded by [max_memo_entries] *)
  max_memo_entries : int;
  (* Reused row for mode_raw and for memo overflow. *)
  scratch_row : int array array;
  in_scratch : 'l array array;
  dec_tbl : 'l array; (* [||] when the space is too large to tabulate *)
  bytes_per_label : int;
  key_buf : Bytes.t;
  mutable spare_labels : int array;
  mutable spare_outputs : int array;
  mutable hist : int array; (* outputs history scratch for [settle] *)
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
  let memo = Array.init n (fun _ -> empty_memo ()) in
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
    | Some _ when max_memo_entries > 0 ->
        mode.(i) <- mode_memo;
        memo.(i) <- fresh_memo width
    | _ -> mode.(i) <- mode_raw
  done;
  let bytes_per_label =
    if card <= 0x100 then 1 else if card <= 0x10000 then 2 else 4
  in
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
    memo;
    max_memo_entries;
    scratch_row;
    in_scratch;
    dec_tbl;
    bytes_per_label;
    key_buf = Bytes.create (m * bytes_per_label);
    spare_labels = Array.make m 0;
    spare_outputs = Array.make n 0;
    hist = [||];
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
   source buffer. Used by the batched planes, where gathering a column
   into a temporary int array would defeat the layout. *)
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

(* [eval t src i] is node [i]'s reaction to [src] as [(row, base)]: the
   out-edge codes live at [row.(base) .. row.(base + dout - 1)] and the
   output at [row.(base + dout)]. The row may be shared scratch — consume
   it before the next [eval]. Used on the cold paths (stability check,
   settle refresh); the step loop inlines the same logic. *)
let eval t src i =
  let d = t.out_off.(i + 1) - t.out_off.(i) in
  let mode = Array.unsafe_get t.mode i in
  if mode = mode_table then begin
    let code = in_code t i src in
    let base = code * (d + 1) in
    let tbl = t.tables.(i) in
    if Bytes.unsafe_get t.filled.(i) code = '\000' then begin
      fill_row t i src tbl base;
      Bytes.unsafe_set t.filled.(i) code '\001'
    end;
    (tbl, base)
  end
  else if mode = mode_memo then begin
    let code = in_code t i src in
    let mm = t.memo.(i) in
    let mask = Array.length mm.keys - 1 in
    let pos = memo_probe mm.keys mask code (memo_hash code land mask) in
    if pos >= 0 then (mm.rows, mm.slot.(pos) * (d + 1))
    else if mm.nrows < t.max_memo_entries then begin
      let base = memo_add mm (d + 1) code in
      fill_row t i src mm.rows base;
      (mm.rows, base)
    end
    else begin
      let row = t.scratch_row.(i) in
      fill_row t i src row 0;
      (row, 0)
    end
  end
  else begin
    let row = t.scratch_row.(i) in
    fill_row t i src row 0;
    (row, 0)
  end

let eval_row t ~src ~i = eval t src i

(* [eval] when the caller already holds the packed incoming code (the
   batched planes gather codes straight out of their label planes). Rows
   filled here are bit-identical to [fill_row]'s, so a kernel shared
   between per-instance and batched stepping stays coherent. *)
let eval_coded t i code =
  let d = t.out_off.(i + 1) - t.out_off.(i) in
  let mode = Array.unsafe_get t.mode i in
  if mode = mode_table then begin
    let base = code * (d + 1) in
    let tbl = t.tables.(i) in
    if Bytes.unsafe_get t.filled.(i) code = '\000' then begin
      fill_row_coded t i code tbl base;
      Bytes.unsafe_set t.filled.(i) code '\001'
    end;
    (tbl, base)
  end
  else if mode = mode_memo then begin
    let mm = t.memo.(i) in
    let mask = Array.length mm.keys - 1 in
    let pos = memo_probe mm.keys mask code (memo_hash code land mask) in
    if pos >= 0 then (mm.rows, mm.slot.(pos) * (d + 1))
    else if mm.nrows < t.max_memo_entries then begin
      let base = memo_add mm (d + 1) code in
      fill_row_coded t i code mm.rows base;
      (mm.rows, base)
    end
    else begin
      let row = t.scratch_row.(i) in
      fill_row_coded t i code row 0;
      (row, 0)
    end
  end
  else begin
    let row = t.scratch_row.(i) in
    fill_row_coded t i code row 0;
    (row, 0)
  end

(* The hot loop: [eval] inlined per tier so that a warm step allocates
   nothing — no [(row, base)] pair, no hashing of boxed keys, no closure
   over the active list. *)
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
         let code = in_code t i src in
         let mm = Array.unsafe_get t.memo i in
         let keys = mm.keys in
         let mask = Array.length keys - 1 in
         let pos = memo_probe keys mask code (memo_hash code land mask) in
         let rows, base =
           if pos >= 0 then (mm.rows, Array.unsafe_get mm.slot pos * (d + 1))
           else if mm.nrows < t.max_memo_entries then begin
             let base = memo_add mm (d + 1) code in
             fill_row t i src mm.rows base;
             (mm.rows, base)
           end
           else begin
             let row = Array.unsafe_get t.scratch_row i in
             fill_row t i src row 0;
             (row, 0)
           end
         in
         for k = 0 to d - 1 do
           Array.unsafe_set dst
             (Array.unsafe_get oflat (olo + k))
             (Array.unsafe_get rows (base + k))
         done;
         Array.unsafe_set dst_outputs i (Array.unsafe_get rows (base + d))
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
  let rec check i =
    if i >= t.n then true
    else begin
      let row, base = eval t src i in
      let olo = t.out_off.(i) in
      let d = t.out_off.(i + 1) - olo in
      let rec same k =
        k >= d
        || (row.(base + k) = Array.unsafe_get src t.out_flat.(olo + k)
            && same (k + 1))
      in
      if same 0 then check (i + 1) else false
    end
  in
  check 0

let is_stable t ~labels = is_stable_packed t labels

(* Same packing as {!Protocol.config_key}: the labeling alone, little-endian
   per label. The Bytes buffer is reused; only the final string allocates. *)
let key_of t labels =
  let bpl = t.bytes_per_label in
  let buf = t.key_buf in
  for e = 0 to t.m - 1 do
    let v = ref (Array.unsafe_get labels e) in
    for k = 0 to bpl - 1 do
      Bytes.unsafe_set buf ((e * bpl) + k) (Char.unsafe_chr (!v land 0xff));
      v := !v lsr 8
    done
  done;
  Bytes.to_string buf

exception Cycle_found of int * int
exception Quiescent of int

let run_until_stable t ~init ~schedule ~max_steps =
  let cur = ref (Array.make t.m 0) and curo = ref (Array.make t.n 0) in
  let nxt = ref (Array.make t.m 0) and nxto = ref (Array.make t.n 0) in
  load t init ~labels:!cur ~outputs:!curo;
  let period_opt = schedule.Schedule.period in
  let seen = Hashtbl.create 256 in
  let rec loop s key last_change =
    if is_stable_packed t !cur then
      Engine.Stabilized
        { rounds = s; config = store t ~labels:!cur ~outputs:!curo }
    else if s >= max_steps then
      Engine.Exhausted (store t ~labels:!cur ~outputs:!curo)
    else begin
      (match period_opt with
      | Some period when s mod period = 0 -> (
          match Hashtbl.find_opt seen key with
          | Some t0 ->
              if last_change > t0 then raise (Cycle_found (t0, s - t0))
              else raise (Quiescent last_change)
          | None -> Hashtbl.replace seen key s)
      | _ -> ());
      step_into t ~src:!cur ~src_outputs:!curo ~dst:!nxt ~dst_outputs:!nxto
        ~active:(schedule.Schedule.active s);
      let tl = !cur and to_ = !curo in
      cur := !nxt;
      curo := !nxto;
      nxt := tl;
      nxto := to_;
      let next_key = key_of t !cur in
      let last_change =
        if String.equal next_key key then last_change else s + 1
      in
      loop (s + 1) next_key last_change
    end
  in
  match loop 0 (key_of t !cur) 0 with
  | result -> result
  | exception Cycle_found (entered, period) ->
      Engine.Oscillating { entered; period }
  | exception Quiescent since ->
      Engine.Stabilized
        { rounds = since; config = run t ~init ~schedule ~steps:since }

let settle t ~init ~schedule ~max_steps =
  match run_until_stable t ~init ~schedule ~max_steps with
  | Engine.Exhausted _ -> None
  | outcome -> (
      let horizon, cycle_entry =
        match outcome with
        | Engine.Stabilized { rounds; _ } ->
            let slack = max 1 t.n
            and slack_period =
              match schedule.Schedule.period with Some q -> q | None -> 1
            in
            (rounds + (slack * slack_period), None)
        | Engine.Oscillating { entered; period } ->
            (entered + (2 * period), Some entered)
        | Engine.Exhausted _ -> assert false
      in
      (* Replay once, keeping only the horizon state and the per-step output
         vectors — row [s] of [hist] is the output vector after [s] steps. *)
      let need = (horizon + 1) * t.n in
      if Array.length t.hist < need then t.hist <- Array.make need 0;
      let hist = t.hist in
      let cur = ref (Array.make t.m 0) and curo = ref (Array.make t.n 0) in
      let nxt = ref (Array.make t.m 0) and nxto = ref (Array.make t.n 0) in
      load t init ~labels:!cur ~outputs:!curo;
      Array.blit !curo 0 hist 0 t.n;
      for s = 0 to horizon - 1 do
        step_into t ~src:!cur ~src_outputs:!curo ~dst:!nxt ~dst_outputs:!nxto
          ~active:(schedule.Schedule.active s);
        let tl = !cur and to_ = !curo in
        cur := !nxt;
        curo := !nxto;
        nxt := tl;
        nxto := to_;
        Array.blit !curo 0 hist ((s + 1) * t.n) t.n
      done;
      let rows_equal r1 r2 =
        let rec go j =
          j >= t.n
          || (hist.((r1 * t.n) + j) = hist.((r2 * t.n) + j) && go (j + 1))
        in
        go 0
      in
      let settled_outputs =
        match cycle_entry with
        | None ->
            (* Labels are stable at the horizon; refresh so every node has
               reported. *)
            Some
              (Array.init t.n (fun i ->
                   let row, base = eval t !cur i in
                   row.(base + t.out_off.(i + 1) - t.out_off.(i))))
        | Some entered ->
            let reference = entered + 1 in
            let constant = ref true in
            for s = entered + 2 to horizon do
              if not (rows_equal s reference) then constant := false
            done;
            if !constant then Some (Array.sub hist (reference * t.n) t.n)
            else None
      in
      match settled_outputs with
      | None -> None
      | Some settled_outputs ->
          let rec first_bad s best =
            if s < 0 then best
            else if rows_equal s horizon then first_bad (s - 1) s
            else best
          in
          let settle_time = first_bad horizon horizon in
          Some
            {
              Engine.settle_time;
              settled_outputs;
              horizon_config = store t ~labels:!cur ~outputs:!curo;
            })

(* ------------------------------------------------------------------ *)
(* Batched planes (the primitives behind {!Batch})                     *)
(* ------------------------------------------------------------------ *)

type plane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The batched twin of [apply_active]: one pass per active node, instance
   columns innermost. Codes are gathered edge-by-edge so every inner loop
   reads one edge's instance row contiguously; the reaction tiers are the
   kernel's own, shared read-only across the batch — a row is a
   value-deterministic function of its incoming code, so the order in
   which instances fault rows in cannot change any result. The per-node
   fixed costs (CSR lookups, tier dispatch, the active-list walk and the
   carry-over decision) are paid once per node per lock-step sweep instead
   of once per instance. *)
let step_plane t ~stride ~live ~nlive ~src ~src_outputs ~dst ~dst_outputs
    ~codes ~active =
  (if active == t.full_active then ()
   else if covers_all t active then t.full_active <- active
   else begin
     (* Whole-plane carry-over: retired columns ride along as stale data
        (their snapshots are authoritative), which keeps the copy one
        straight memcpy. *)
     Bigarray.Array1.blit src dst;
     Bigarray.Array1.blit src_outputs dst_outputs
   end);
  let card = t.card in
  (* Dense fast path: until an instance retires, [live] is the identity
     map, so the column index IS the loop index — no [live] indirection,
     gathers and scatters walk each edge row sequentially, and the table
     tier can rebase [codes] to row offsets once and scatter edge-outer
     (fully sequential plane writes). Checked once per sweep; O(nlive)
     against the per-node work it guards. *)
  let dense =
    let rec ident p = p >= nlive || (Array.unsafe_get live p = p && ident (p + 1)) in
    ident 0
  in
  let rec go = function
    | [] -> ()
    | i :: rest ->
        let ilo = Array.unsafe_get t.in_off i in
        let ihi = Array.unsafe_get t.in_off (i + 1) in
        (if ilo = ihi then Array.fill codes 0 nlive 0
         else if dense then begin
           let base0 = Array.unsafe_get t.in_flat ilo * stride in
           for p = 0 to nlive - 1 do
             Array.unsafe_set codes p
               (Bigarray.Array1.unsafe_get src (base0 + p))
           done;
           for k = ilo + 1 to ihi - 1 do
             let base = Array.unsafe_get t.in_flat k * stride in
             for p = 0 to nlive - 1 do
               Array.unsafe_set codes p
                 ((Array.unsafe_get codes p * card)
                 + Bigarray.Array1.unsafe_get src (base + p))
             done
           done
         end
         else begin
           let base0 = Array.unsafe_get t.in_flat ilo * stride in
           for p = 0 to nlive - 1 do
             Array.unsafe_set codes p
               (Bigarray.Array1.unsafe_get src
                  (base0 + Array.unsafe_get live p))
           done;
           for k = ilo + 1 to ihi - 1 do
             let base = Array.unsafe_get t.in_flat k * stride in
             for p = 0 to nlive - 1 do
               Array.unsafe_set codes p
                 ((Array.unsafe_get codes p * card)
                 + Bigarray.Array1.unsafe_get src
                     (base + Array.unsafe_get live p))
             done
           done
         end);
        let olo = Array.unsafe_get t.out_off i in
        let d = Array.unsafe_get t.out_off (i + 1) - olo in
        let oflat = t.out_flat in
        let obase = i * stride in
        (if Array.unsafe_get t.mode i = mode_table then begin
           let tbl = Array.unsafe_get t.tables i in
           let flags = Array.unsafe_get t.filled i in
           if dense then begin
             (* Pass 1: fault rows in and rebase codes to row offsets;
                pass 2: scatter edge-outer so every plane write is
                sequential in the instance index. *)
             let d1 = d + 1 in
             for p = 0 to nlive - 1 do
               let code = Array.unsafe_get codes p in
               if Bytes.unsafe_get flags code = '\000' then begin
                 fill_row_coded t i code tbl (code * d1);
                 Bytes.unsafe_set flags code '\001'
               end;
               Array.unsafe_set codes p (code * d1)
             done;
             for k = 0 to d - 1 do
               let dbase = Array.unsafe_get oflat (olo + k) * stride in
               for p = 0 to nlive - 1 do
                 Bigarray.Array1.unsafe_set dst (dbase + p)
                   (Array.unsafe_get tbl (Array.unsafe_get codes p + k))
               done
             done;
             for p = 0 to nlive - 1 do
               Bigarray.Array1.unsafe_set dst_outputs (obase + p)
                 (Array.unsafe_get tbl (Array.unsafe_get codes p + d))
             done
           end
           else
             for p = 0 to nlive - 1 do
               let code = Array.unsafe_get codes p in
               let base = code * (d + 1) in
               if Bytes.unsafe_get flags code = '\000' then begin
                 fill_row_coded t i code tbl base;
                 Bytes.unsafe_set flags code '\001'
               end;
               let j = Array.unsafe_get live p in
               for k = 0 to d - 1 do
                 Bigarray.Array1.unsafe_set dst
                   ((Array.unsafe_get oflat (olo + k) * stride) + j)
                   (Array.unsafe_get tbl (base + k))
               done;
               Bigarray.Array1.unsafe_set dst_outputs (obase + j)
                 (Array.unsafe_get tbl (base + d))
             done
         end
         else if Array.unsafe_get t.mode i = mode_memo then begin
           let mm = Array.unsafe_get t.memo i in
           for p = 0 to nlive - 1 do
             let code = Array.unsafe_get codes p in
             (* Re-read [mm.keys] per instance: a miss below can grow the
                memo mid-sweep. *)
             let keys = mm.keys in
             let mask = Array.length keys - 1 in
             let pos = memo_probe keys mask code (memo_hash code land mask) in
             let rows, base =
               if pos >= 0 then
                 (mm.rows, Array.unsafe_get mm.slot pos * (d + 1))
               else if mm.nrows < t.max_memo_entries then begin
                 let base = memo_add mm (d + 1) code in
                 fill_row_coded t i code mm.rows base;
                 (mm.rows, base)
               end
               else begin
                 let row = Array.unsafe_get t.scratch_row i in
                 fill_row_coded t i code row 0;
                 (row, 0)
               end
             in
             let j = if dense then p else Array.unsafe_get live p in
             for k = 0 to d - 1 do
               Bigarray.Array1.unsafe_set dst
                 ((Array.unsafe_get oflat (olo + k) * stride) + j)
                 (Array.unsafe_get rows (base + k))
             done;
             Bigarray.Array1.unsafe_set dst_outputs (obase + j)
               (Array.unsafe_get rows (base + d))
           done
         end
         else begin
           let row = Array.unsafe_get t.scratch_row i in
           for p = 0 to nlive - 1 do
             fill_row_coded t i (Array.unsafe_get codes p) row 0;
             let j = if dense then p else Array.unsafe_get live p in
             for k = 0 to d - 1 do
               Bigarray.Array1.unsafe_set dst
                 ((Array.unsafe_get oflat (olo + k) * stride) + j)
                 (Array.unsafe_get row k)
             done;
             Bigarray.Array1.unsafe_set dst_outputs (obase + j)
               (Array.unsafe_get row d)
           done
         end);
        go rest
  in
  go active

(* [in_code] read off one plane column. *)
let in_code_in_plane t ~stride ~j ~src i =
  let card = t.card in
  let c = ref 0 in
  for k = Array.unsafe_get t.in_off i to Array.unsafe_get t.in_off (i + 1) - 1
  do
    c :=
      (!c * card)
      + Bigarray.Array1.unsafe_get src
          ((Array.unsafe_get t.in_flat k * stride) + j)
  done;
  !c

(* [is_stable_packed] for one plane column. *)
let stable_in_plane t ~stride ~j ~src =
  let rec check i =
    if i >= t.n then true
    else begin
      let row, base = eval_coded t i (in_code_in_plane t ~stride ~j ~src i) in
      let olo = t.out_off.(i) in
      let d = t.out_off.(i + 1) - olo in
      let rec same k =
        k >= d
        || (row.(base + k)
            = Bigarray.Array1.unsafe_get src
                ((Array.unsafe_get t.out_flat (olo + k) * stride) + j)
           && same (k + 1))
      in
      if same 0 then check (i + 1) else false
    end
  in
  check 0

(* [key_of] for one plane column — same byte packing, same reused buffer. *)
let key_in_plane t ~stride ~j ~src =
  let bpl = t.bytes_per_label in
  let buf = t.key_buf in
  for e = 0 to t.m - 1 do
    let v =
      ref (Bigarray.Array1.unsafe_get src ((e * stride) + j))
    in
    for k = 0 to bpl - 1 do
      Bytes.unsafe_set buf ((e * bpl) + k) (Char.unsafe_chr (!v land 0xff));
      v := !v lsr 8
    done
  done;
  Bytes.to_string buf

(* Node [i]'s output when reacting to the packed labeling [labels] — the
   settle refresh for batched instances whose horizon state lives in a
   retirement snapshot. *)
let node_output t ~labels ~i =
  let row, base = eval t labels i in
  row.(base + t.out_off.(i + 1) - t.out_off.(i))
