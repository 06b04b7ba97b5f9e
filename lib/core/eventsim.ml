module Digraph = Stateless_graph.Digraph

type latency =
  | Const of float
  | Uniform of float * float
  | Exp of float
  | Pareto of float * float

type faults = { loss : float; dup : float; crash : float; crash_len : float }

let no_faults = { loss = 0.0; dup = 0.0; crash = 0.0; crash_len = 0.0 }

type stats = {
  events : int;
  activations : int;
  deliveries : int;
  lost : int;
  duplicated : int;
  crash_windows : int;
  time : float;
  pending : int;
}

(* Event storage, by what the run loop needs to see:

   - the async merged activation clock is one scalar ([clock], a 1-cell
     float array so stores stay unboxed); sync mode keeps the time of its
     next wave there instead — every node activates at every integer
     time, swept in node order;
   - constant-latency deliveries (including sync mode's unit latency) are
     pushed at activation times, which the run loop visits in
     nondecreasing order, so their times are already sorted: a FIFO ring
     buffer, drained up to each activation time;
   - variable-latency messages are never ordered at all. A node reacts
     only to the latest label on each in-edge, so a message's arrival is
     observable only by its receiver's next activation (or by a caller
     reading labels between [run] calls). Each message is prepended to
     its edge's in-flight list; before a node reacts, each in-edge is
     resolved at the activation time, and [run] resolves every edge at
     the horizon before it returns (see [resolve]). *)
type ('x, 'l) t = {
  kernel : ('x, 'l) Kernel.t;
  graph : Digraph.t;
  n : int;
  nm : int; (* n + num_edges: stream-id stride between draw purposes *)
  delivered : int array; (* per-edge last-delivered label code *)
  node_outputs : int array;
  rate : float;
  latency : latency;
  sync : bool;
  is_const : bool; (* latency is Const: deliveries take the FIFO *)
  const_lat : float; (* the Const latency when [is_const] *)
  (* Fault probabilities as thresholds on a draw's 52 integer bits. *)
  loss_thr : int;
  dup_thr : int;
  crash_thr : int;
  crash_len : float;
  rng_base : int;
  (* Per-stream draw counters: a draw is a pure function of
     (seed, stream, counter), so the trajectory is independent of anything
     but the seed — no hidden global RNG state. *)
  mutable gap_ctr : int; (* async: merged-clock activation gaps *)
  mutable pick_ctr : int; (* async: uniform node picks *)
  crash_ctr : int array; (* per node: crash coins *)
  lat_ctr : int array; (* per edge: latency draws *)
  coin_ctr : int array; (* per edge: loss/dup coins *)
  crashed_until : float array;
  clock : float array; (* async: next activation; sync: next wave *)
  at : float array; (* time of the activation or resolution under way *)
  (* Constant-latency delivery FIFO: ring buffer, capacity a power of
     two, [fhead]/[ftail] monotone counters masked on access. Empty
     arrays for variable latency. *)
  mutable ft : float array;
  mutable fe : int array;
  mutable fc : int array;
  mutable fhead : int;
  mutable ftail : int;
  (* Variable latency: per-edge in-flight lists threaded through a slot
     pool ([snext] links a list, or the free list from [free]). All
     empty for constant latency. *)
  head : int array; (* per edge: newest in-flight slot, or -1 *)
  mutable snext : int array;
  mutable stime : float array; (* arrival time *)
  mutable scode : int array;
  mutable free : int;
  mutable inflight : int;
  mutable now : float;
  mutable events : int;
  mutable activations : int;
  mutable deliveries : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable crash_windows : int;
}

(* Splitmix-style finalizer on OCaml's 63-bit native ints (the classic
   64-bit constants don't fit an int literal; these odd constants < 2^62
   do, and [land max_int] keeps every intermediate nonnegative). *)
let mix63 x =
  let x = x land max_int in
  let x = (x lxor (x lsr 30)) * 0x2545F4914F6CDD1D land max_int in
  let x = (x lxor (x lsr 27)) * 0x1F123BB5159A55E5 land max_int in
  x lxor (x lsr 31)

(* A draw's top 52 of the mix's 62 value bits (OCaml's [max_int] is
   2^62 - 1), as an integer k in [1, 2^52]; the uniform variate is
   u = k * 2^-52 on (0, 1] — never 0, so log u is finite. Draws stay ints
   until the float is consumed in place: without flambda a float returned
   from a call is boxed. *)
let draw t ~stream ~ctr =
  (mix63 (mix63 (t.rng_base + stream) + ctr) lsr 10) + 1

let u_of k = float_of_int k *. 0x1p-52

(* [u < p] exactly when [k < ceil (p * 2^52)] (k is an integer and the
   scaling by 2^52 is exact), so a fault coin compares ints. *)
let threshold p = if p > 0.0 then int_of_float (Float.ceil (p *. 0x1p52)) else 0

(* Stream ids: tag * (n + m) + idx, with nodes at idx in [0, n) and edges
   at idx in [n, n + m). Async activations use only node streams 0 and 1:
   the n per-node Poisson(rate) clocks are simulated by their
   superposition — one merged Exp(n * rate) gap stream plus a uniform node
   pick — which is the same stochastic process with n times fewer pending
   events. *)
let advance_clock t =
  let c = t.gap_ctr in
  t.gap_ctr <- c + 1;
  let u = u_of (draw t ~stream:0 ~ctr:c) in
  Array.unsafe_set t.clock 0
    (Array.unsafe_get t.clock 0 -. (log u /. (t.rate *. float_of_int t.n)))

let draw_node_pick t =
  let c = t.pick_ctr in
  t.pick_ctr <- c + 1;
  let u = u_of (draw t ~stream:1 ~ctr:c) in
  (* u is on (0, 1], so clamp the u = 1 endpoint. *)
  let i = int_of_float (u *. float_of_int t.n) in
  if i >= t.n then t.n - 1 else i

let crash_coin t i =
  let c = t.crash_ctr.(i) in
  t.crash_ctr.(i) <- c + 1;
  draw t ~stream:(t.nm + i) ~ctr:c

let edge_coin t e =
  let c = t.coin_ctr.(e) in
  t.coin_ctr.(e) <- c + 1;
  draw t ~stream:((3 * t.nm) + t.n + e) ~ctr:c

(* FIFO growth: double (capacity stays a power of two) and unwrap the
   live window to the front of the new arrays. *)
let fifo_grow t =
  let cap = Array.length t.ft in
  let mask = cap - 1 in
  let len = t.ftail - t.fhead in
  let cap' = 2 * cap in
  let ft = Array.make cap' 0.0 in
  let fe = Array.make cap' 0 in
  let fc = Array.make cap' 0 in
  for k = 0 to len - 1 do
    let p = (t.fhead + k) land mask in
    ft.(k) <- t.ft.(p);
    fe.(k) <- t.fe.(p);
    fc.(k) <- t.fc.(p)
  done;
  t.ft <- ft;
  t.fe <- fe;
  t.fc <- fc;
  t.fhead <- 0;
  t.ftail <- len

(* Slot-pool growth: double and chain the new slots onto the free list. *)
let pool_grow t =
  let cap = Array.length t.snext in
  let cap' = max 1024 (2 * cap) in
  let grow a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.snext <- grow t.snext (-1);
  t.stime <- grow t.stime 0.0;
  t.scode <- grow t.scode 0;
  for s = cap to cap' - 2 do
    t.snext.(s) <- s + 1
  done;
  t.free <- cap

(* Send [code] along edge [e] at time [t.at]: a FIFO append for constant
   latency, otherwise a latency draw and a push onto [e]'s in-flight
   list. *)
let send t e code =
  if t.is_const then begin
    if t.ftail - t.fhead = Array.length t.ft then fifo_grow t;
    let p = t.ftail land (Array.length t.ft - 1) in
    t.ftail <- t.ftail + 1;
    Array.unsafe_set t.ft p (Array.unsafe_get t.at 0 +. t.const_lat);
    Array.unsafe_set t.fe p e;
    Array.unsafe_set t.fc p code
  end
  else begin
    let c = t.lat_ctr.(e) in
    t.lat_ctr.(e) <- c + 1;
    let u = u_of (draw t ~stream:((2 * t.nm) + t.n + e) ~ctr:c) in
    let lat =
      match t.latency with
      | Const c -> c
      | Uniform (lo, hi) -> lo +. (u *. (hi -. lo))
      | Exp mean -> -.mean *. log u
      | Pareto (alpha, xmin) -> xmin *. (u ** (-1.0 /. alpha))
    in
    if t.free < 0 then pool_grow t;
    let s = t.free in
    t.free <- Array.unsafe_get t.snext s;
    Array.unsafe_set t.stime s (Array.unsafe_get t.at 0 +. lat);
    Array.unsafe_set t.scode s code;
    Array.unsafe_set t.snext s (Array.unsafe_get t.head e);
    Array.unsafe_set t.head e s;
    t.inflight <- t.inflight + 1
  end

(* Deliver every FIFO message that has arrived by [t.at]. *)
let drain_fifo t =
  while
    t.fhead <> t.ftail
    && Array.unsafe_get t.ft (t.fhead land (Array.length t.ft - 1))
       <= Array.unsafe_get t.at 0
  do
    let p = t.fhead land (Array.length t.ft - 1) in
    t.fhead <- t.fhead + 1;
    t.events <- t.events + 1;
    t.deliveries <- t.deliveries + 1;
    t.delivered.(Array.unsafe_get t.fe p) <- Array.unsafe_get t.fc p
  done

(* Resolve edge [e] at time [t.at]: every in-flight message that has
   arrived by then is a delivery, and the edge takes the code of the
   latest arrival. This equals delivering the messages one by one in time
   order, because every message on the list was sent after the edge's
   previous resolution, so none arrives before a label the edge already
   applied. Two arrivals at the same time are, barring float
   coincidences, the two copies of one duplicated message, so which of
   them wins does not matter. *)
let resolve t e =
  let snext = t.snext and stime = t.stime in
  let s = ref (Array.unsafe_get t.head e) in
  let prev = ref (-1) and best = ref (-1) in
  while !s >= 0 do
    let cur = !s in
    let nx = Array.unsafe_get snext cur in
    if Array.unsafe_get stime cur <= Array.unsafe_get t.at 0 then begin
      if
        !best < 0
        || Array.unsafe_get stime cur > Array.unsafe_get stime !best
      then best := cur;
      if !prev < 0 then Array.unsafe_set t.head e nx
      else Array.unsafe_set snext !prev nx;
      Array.unsafe_set snext cur t.free;
      t.free <- cur;
      t.inflight <- t.inflight - 1;
      t.events <- t.events + 1;
      t.deliveries <- t.deliveries + 1
    end
    else prev := cur;
    s := nx
  done;
  if !best >= 0 then t.delivered.(e) <- Array.unsafe_get t.scode !best

let check_latency = function
  | Const c -> if c < 0.0 then invalid_arg "Eventsim: negative Const latency"
  | Uniform (lo, hi) ->
      if lo < 0.0 || hi < lo then invalid_arg "Eventsim: bad Uniform latency"
  | Exp mean -> if mean <= 0.0 then invalid_arg "Eventsim: bad Exp latency"
  | Pareto (alpha, xmin) ->
      if alpha <= 0.0 || xmin <= 0.0 then
        invalid_arg "Eventsim: bad Pareto latency"

let check_faults f =
  let prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Eventsim: %s probability out of [0,1]" name)
  in
  prob "loss" f.loss;
  prob "dup" f.dup;
  prob "crash" f.crash;
  if f.crash_len < 0.0 then invalid_arg "Eventsim: negative crash_len"

let create ?max_table_words ?max_memo_entries ?(rate = 1.0)
    ?(latency = Exp 1.0) ?(faults = no_faults) ?(sync = false) ~seed p ~input
    ~init =
  if rate <= 0.0 then invalid_arg "Eventsim.create: rate must be positive";
  check_latency latency;
  check_faults faults;
  let latency = if sync then Const 1.0 else latency in
  let faults = if sync then no_faults else faults in
  let kernel = Kernel.create ?max_table_words ?max_memo_entries p ~input in
  let graph = p.Protocol.graph in
  let n = Digraph.num_nodes graph in
  let m = Digraph.num_edges graph in
  let delivered = Array.make m 0 in
  let node_outputs = Array.make n 0 in
  Kernel.load kernel init ~labels:delivered ~outputs:node_outputs;
  let is_const = match latency with Const _ -> true | _ -> false in
  (* Each run allocates the delivery structure of its latency shape only. *)
  let fifo_cap = if is_const then 1024 else 0 in
  let t =
    {
      kernel;
      graph;
      n;
      nm = n + m;
      delivered;
      node_outputs;
      rate;
      latency;
      sync;
      is_const;
      const_lat = (match latency with Const c -> c | _ -> 0.0);
      loss_thr = threshold faults.loss;
      dup_thr = threshold faults.dup;
      crash_thr = threshold faults.crash;
      crash_len = faults.crash_len;
      rng_base = mix63 seed;
      gap_ctr = 0;
      pick_ctr = 0;
      crash_ctr = Array.make n 0;
      lat_ctr = Array.make m 0;
      coin_ctr = Array.make m 0;
      crashed_until = Array.make n 0.0;
      clock = Array.make 1 0.0;
      at = Array.make 1 0.0;
      ft = Array.make fifo_cap 0.0;
      fe = Array.make fifo_cap 0;
      fc = Array.make fifo_cap 0;
      fhead = 0;
      ftail = 0;
      head = (if is_const then [||] else Array.make m (-1));
      snext = [||];
      stime = [||];
      scode = [||];
      free = -1;
      inflight = 0;
      now = 0.0;
      events = 0;
      activations = 0;
      deliveries = 0;
      lost = 0;
      duplicated = 0;
      crash_windows = 0;
    }
  in
  if not sync then advance_clock t;
  t

(* Activate node [i] at [t.at]: unless a crash window suppresses the
   reaction, resolve [i]'s in-edges and react. *)
let activate t i =
  t.events <- t.events + 1;
  t.activations <- t.activations + 1;
  let now = Array.unsafe_get t.at 0 in
  if now >= t.crashed_until.(i) then begin
    if t.crash_thr > 0 && crash_coin t i < t.crash_thr then begin
      t.crashed_until.(i) <- now +. t.crash_len;
      t.crash_windows <- t.crash_windows + 1
    end
    else begin
      if not t.is_const then begin
        let ies = Digraph.in_edges t.graph i in
        for k = 0 to Array.length ies - 1 do
          let e = Array.unsafe_get ies k in
          if Array.unsafe_get t.head e >= 0 then resolve t e
        done
      end;
      let row = Kernel.row_array t.kernel i in
      let base = Kernel.row_offset t.kernel ~src:t.delivered ~i row in
      let oes = Digraph.out_edges t.graph i in
      let d = Array.length oes in
      t.node_outputs.(i) <- row.(base + d);
      for k = 0 to d - 1 do
        let e = Array.unsafe_get oes k in
        let code = Array.unsafe_get row (base + k) in
        if t.loss_thr > 0 && edge_coin t e < t.loss_thr then
          t.lost <- t.lost + 1
        else begin
          send t e code;
          if t.dup_thr > 0 && edge_coin t e < t.dup_thr then begin
            t.duplicated <- t.duplicated + 1;
            send t e code
          end
        end
      done
    end
  end

let stats t =
  {
    events = t.events;
    activations = t.activations;
    deliveries = t.deliveries;
    lost = t.lost;
    duplicated = t.duplicated;
    crash_windows = t.crash_windows;
    time = t.now;
    pending = t.inflight + (t.ftail - t.fhead) + (if t.sync then t.n else 1);
  }

(* Events are processed in time order; at equal times deliveries come
   before activations, so each activation first drains the FIFO up to its
   own time (in-flight lists are resolved inside [activate]). That
   tie-break is what makes the synchronous anchor exact — the wave at
   integer time k observes every label delivered at k. A delivery exactly
   at the horizon is applied, an activation is not: [run ~horizon:k] on
   the sync anchor leaves the labels after exactly k synchronous steps,
   and cutting a run at any horizon leaves the trajectory unchanged.

   [t.now] is only read between run calls; assigning it per event would
   box a float per event — it is parked at [horizon] on exit. *)
let run t ~horizon =
  if horizon < t.now then invalid_arg "Eventsim.run: horizon before now";
  while Array.unsafe_get t.clock 0 < horizon do
    Array.unsafe_set t.at 0 (Array.unsafe_get t.clock 0);
    drain_fifo t;
    if t.sync then begin
      (* Order within a wave is free: every node reads the labels of the
         previous wave, and its messages arrive one tick later. *)
      for i = 0 to t.n - 1 do
        activate t i
      done;
      Array.unsafe_set t.clock 0 (Array.unsafe_get t.clock 0 +. 1.0)
    end
    else begin
      advance_clock t;
      activate t (draw_node_pick t)
    end
  done;
  Array.unsafe_set t.at 0 horizon;
  drain_fifo t;
  if t.inflight > 0 then
    for e = 0 to Array.length t.head - 1 do
      if Array.unsafe_get t.head e >= 0 then resolve t e
    done;
  t.now <- horizon;
  stats t

let time t = t.now
let labels t = t.delivered
let outputs t = t.node_outputs
let config t = Kernel.store t.kernel ~labels:t.delivered ~outputs:t.node_outputs
