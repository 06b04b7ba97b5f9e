(** Event-driven continuous-time simulator for stateless protocols.

    Every engine so far activates nodes along a discrete schedule, one global
    step at a time. This module simulates the same protocols in continuous
    time: each node carries an exponential activation clock (a Poisson clock
    of configurable rate) and each edge a latency distribution, and the
    simulation advances activation by activation. An {b activation} of node
    [i] reads the last-delivered label code of every in-edge, evaluates
    [i]'s reaction through the packed kernel's compiled tier
    ({!Kernel.row_array} / {!Kernel.row_offset} — table, memo or raw),
    records the output, and sends one message per out-edge, which arrives
    at [now + draw(latency)]; a {b delivery} simply overwrites its edge's
    last-delivered slot.

    {b Event storage.} No boxed event records and no priority queue. The
    n activation clocks are simulated by their Poisson superposition — a
    single merged [Exp (n * rate)] clock (one scalar) plus a uniform node
    pick per activation, the identical stochastic process with n times
    fewer pending events; sync mode sweeps the nodes at each integer time
    instead. Constant-latency messages (including sync mode's) arrive in
    send order, so they live in a FIFO ring buffer of flat arrays
    (time, edge, code), drained up to each activation time. Variable-
    latency messages are never ordered: each is pushed onto its edge's
    in-flight list (an [m]-sized head array over a pool of
    (next, time, code) slots). A node reacts only to the latest label on
    each in-edge, so before node [i] reacts at time [t] each of its
    in-edges is {e resolved}: every message that has arrived by [t] counts
    as a delivery, and the edge takes the code of the latest arrival.
    {!run} resolves every edge at the horizon before it returns, so
    {!labels}, {!config} and {!stats} read exactly as if every delivery had
    been processed in time order. This is exact because a message is sent
    after the last resolution of its edge, so it never arrives before a
    label the edge already applied; two arrivals on one edge at the same
    time are (barring float coincidences) the two copies of one duplicated
    message, which carry the same code.

    {b Faults as latency.} Netlab's message faults reduce to latency
    special cases instead of a parallel code path: loss is a delivery
    scheduled at [+∞] (i.e. never sent), duplication is two sends with
    independent latency draws, and a crash is a window during which a node's
    activations fire but its reaction is suppressed.

    {b Determinism.} All randomness comes from a counter-based splitmix-style
    generator over 63-bit ints: a draw is a pure function of
    [(seed, stream, counter)], where streams separate merged-clock
    activation gaps, node picks, per-node crash coins, per-edge latencies
    and per-edge fault coins.
    Same seed ⇒ same trajectory, on any machine, under any
    [Parrun] domain count (each campaign run is an independent simulator).

    {b Synchronous anchor.} In [~sync:true] mode every node activates at
    every integer time starting at [0.0], latency is forced to [Const 1.0]
    and faults are off. Deliveries sort before activations at equal times,
    so the activation wave at time [k] reads exactly the configuration
    produced by wave [k - 1] — and {!run} with [~horizon:(float k)]
    (which processes deliveries {e at} the horizon but not activations)
    leaves labels and outputs bit-identical to [Kernel.run] for [k] steps of
    [Schedule.synchronous]. The differential suite pins this across the
    proptest protocol matrix and all kernel tiers. *)

(** Per-edge message latency distribution. Draws are nonnegative; they can
    be zero ([Const 0.0], [Uniform (0.0, 0.0)], and [Exp] when the uniform
    variate is exactly 1), and a message with zero latency arrives at the
    time it was sent — still before its receiver's next activation. *)
type latency =
  | Const of float  (** every message takes exactly this long *)
  | Uniform of float * float  (** uniform on [[lo, hi]] *)
  | Exp of float  (** exponential with the given mean *)
  | Pareto of float * float
      (** [Pareto (alpha, xmin)]: heavy tail [xmin * u^(-1/alpha)];
          [alpha <= 1] has infinite mean — stragglers dominate *)

(** Stochastic fault model, applied per delivery / per activation. *)
type faults = {
  loss : float;  (** per-message probability the delivery never happens *)
  dup : float;  (** per-message probability of a second, independent copy *)
  crash : float;
      (** per-activation probability of entering a crash window *)
  crash_len : float;  (** duration of a crash window in simulated time *)
}

val no_faults : faults

type ('x, 'l) t

(** Cumulative counters since {!create}; [time] is the simulation clock
    after the last {!run}, [pending] the number of events still to come
    (in-flight messages plus armed activation clocks — one per node in
    sync mode, the single merged clock in async mode). *)
type stats = {
  events : int;  (** activations + deliveries processed *)
  activations : int;
  deliveries : int;
  lost : int;
  duplicated : int;
  crash_windows : int;
  time : float;
  pending : int;
}

(** [create ~seed p ~input ~init] compiles [p] through {!Kernel.create}
    (forwarding [max_table_words] / [max_memo_entries] — pass
    [~max_memo_entries:0] for million-node protocols, where per-node memo
    stores would dominate memory) and arms every node's activation clock.
    [rate] (default [1.0]) is the Poisson activation rate per node;
    [latency] (default [Exp 1.0]) applies to every edge; [faults] defaults
    to {!no_faults}. [sync] selects the synchronous anchor mode described
    above and overrides rate, latency and faults. *)
val create :
  ?max_table_words:int ->
  ?max_memo_entries:int ->
  ?rate:float ->
  ?latency:latency ->
  ?faults:faults ->
  ?sync:bool ->
  seed:int ->
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  ('x, 'l) t

(** [run t ~horizon] processes every event strictly before [horizon] plus
    the deliveries at exactly [horizon], then parks the clock at [horizon].
    Resumable: a later call with a larger horizon continues the same
    trajectory. Returns the cumulative {!stats}. *)
val run : ('x, 'l) t -> horizon:float -> stats

val stats : ('x, 'l) t -> stats
val time : ('x, 'l) t -> float

(** The live packed per-edge last-delivered codes, indexed by edge id.
    Kernel-owned; read-only for callers (scenario probes at million-edge
    scale read this instead of decoding a boxed configuration). *)
val labels : ('x, 'l) t -> int array

(** The live per-node outputs (last reaction's output per node). Read-only. *)
val outputs : ('x, 'l) t -> int array

(** Decode the current state into a boxed configuration (allocates; meant
    for small instances and differential tests). *)
val config : ('x, 'l) t -> 'l Protocol.config
