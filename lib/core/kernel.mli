(** Packed simulation kernel: the engine's hot path on flat int buffers.

    {!Engine.step} re-derives each scheduled node's reaction through boxed
    labels — a [List.map] allocating a reaction tuple and an output array per
    active node per step. This module runs the same global transition
    function on the mixed-radix integer codes that {!Protocol.encode_config}
    and the checker's transition cache already use: a configuration is an
    [int array] of per-edge label codes plus an [int array] of outputs, both
    caller-owned, and a step writes one buffer pair into another with no
    allocation on the hot path.

    Per node the kernel picks the cheapest sound evaluation strategy at
    {!create} time:

    - {b direct table} — when [card^in_degree * (out_degree + 1)] fits the
      word budget, the node's reaction is a lazily filled lookup table
      indexed by the packed incoming-label code: a step is pure int loads;
    - {b sparse memo} — when the table would be too large but the packed
      incoming code still fits an [int], the node gets one direct-mapped
      array, allocated on its first miss: each slot holds an incoming code
      next to its row, and a colliding code overwrites the slot (rows are
      pure functions of the code, so eviction only costs a recomputation);
    - {b raw} — otherwise the reaction function is invoked on a reused
      scratch buffer each time (no table, still no per-step copies).

    All three strategies produce identical results; the differential suite
    in [test_kernel.ml] pins the kernel to {!Engine.step},
    {!Engine.run_until_stable} and {!Engine.settle} on randomized protocols,
    inputs and schedules.

    A kernel instance carries mutable scratch and is {b not} domain-safe:
    create one kernel per domain (see {!Parrun}). *)

type ('x, 'l) t

(** [create p ~input] precomputes the evaluation strategy and tables.
    [max_table_words] (default [2^22]) bounds the total size of all direct
    tables. [max_memo_entries] (default [4096]) bounds the slots of each
    node's memo, which also never exceeds [2^14] words. A node whose
    distinct incoming codes all fit both bounds gets one slot per code,
    indexed by the code, and never evicts; otherwise its slots are the
    largest power of two within both bounds, indexed by a hash of the
    code. The memos of one kernel share a [2^22]-word budget: a node that
    first misses after the rest is spent gets the largest power of two of
    slots that still fits, at least one. Setting either bound to [0]
    forces the next-cheaper strategy, and a small [max_memo_entries] makes
    nearly every lookup evict — the differential tests use both to
    exercise every tier. *)
val create :
  ?max_table_words:int ->
  ?max_memo_entries:int ->
  ('x, 'l) Protocol.t ->
  input:'x array ->
  ('x, 'l) t

val num_nodes : ('x, 'l) t -> int
val num_edges : ('x, 'l) t -> int

(** [decode_label t code] is the label with code [code] — a table lookup for
    enumerable label spaces, so scenario probes (e.g. the D-counter's
    agreement predicate) can read packed states without allocating. *)
val decode_label : ('x, 'l) t -> int -> 'l

(** [load t config ~labels ~outputs] encodes [config] into the caller's
    buffers ([labels] of length [num_edges], [outputs] of length
    [num_nodes]). *)
val load :
  ('x, 'l) t -> 'l Protocol.config -> labels:int array -> outputs:int array -> unit

(** [store t ~labels ~outputs] decodes packed buffers back into a fresh
    boxed configuration. *)
val store :
  ('x, 'l) t -> labels:int array -> outputs:int array -> 'l Protocol.config

(** [step_into t ~src ~src_outputs ~dst ~dst_outputs ~active] applies one
    global transition on packed buffers: every node of [active] reacts to
    [src]; all other labels and outputs persist. [dst] must not alias [src].
    Allocation-free for table/memo-resolved nodes. *)
val step_into :
  ('x, 'l) t ->
  src:int array ->
  src_outputs:int array ->
  dst:int array ->
  dst_outputs:int array ->
  active:int list ->
  unit

(** [step t config ~active] is {!Engine.step} through the kernel — a
    convenience for differential testing, not a hot path. *)
val step :
  ('x, 'l) t -> 'l Protocol.config -> active:int list -> 'l Protocol.config

(** [run_into t ~labels ~outputs ~schedule ~steps] advances the packed state
    in place by [steps] steps (double-buffered internally; the final state is
    written back into the caller's buffers). *)
val run_into :
  ('x, 'l) t ->
  labels:int array ->
  outputs:int array ->
  schedule:Schedule.t ->
  steps:int ->
  unit

(** [run t ~init ~schedule ~steps] is {!Engine.run} through the kernel. *)
val run :
  ('x, 'l) t ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  steps:int ->
  'l Protocol.config

(** [run_until_stable t ~init ~schedule ~max_steps] reproduces
    {!Engine.run_until_stable} exactly (same verdicts, rounds, cycle entry
    points and configurations) on the packed representation. It is
    {!run_until_stable_codes} on [init]'s codes, boxing only the returned
    configuration. *)
val run_until_stable :
  ('x, 'l) t ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  'l Engine.outcome

(** [settle t ~init ~schedule ~max_steps] reproduces {!Engine.settle}
    exactly: same [settle_time], [settled_outputs] and [horizon_config]. It
    is {!settle_codes} on [init]'s codes, boxing only the result. *)
val settle :
  ('x, 'l) t ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  'l Engine.settled option

(** {!Engine.outcome} without configurations. *)
type verdict =
  | Stabilized of int  (** rounds *)
  | Oscillating of { entered : int; period : int }
  | Exhausted

(** [run_until_stable_codes t ~labels ~outputs ~schedule ~max_steps] is the
    verdict of {!run_until_stable} from the packed init in [labels] (length
    [num_edges]) and [outputs] (length [num_nodes]), which are only read.
    The run steps kernel-owned buffers and detects cycles in a
    kernel-owned int-keyed table (keyed by the labeling's mixed-radix code
    when [card^num_edges] fits an [int], by a hash confirmed against the
    labeling otherwise), so a warm call allocates only its verdict. *)
val run_until_stable_codes :
  ('x, 'l) t ->
  labels:int array ->
  outputs:int array ->
  schedule:Schedule.t ->
  max_steps:int ->
  verdict

(** [settle_codes t ~labels ~outputs ~schedule ~max_steps] is the
    [settle_time] of {!settle} from the packed init in [labels] and
    [outputs] (only read), [None] when {!settle} is [None]. The replay that
    certification needs records only the per-step output vectors, in a
    reused flat buffer. *)
val settle_codes :
  ('x, 'l) t ->
  labels:int array ->
  outputs:int array ->
  schedule:Schedule.t ->
  max_steps:int ->
  int option

(** [is_stable t ~labels] is {!Protocol.is_stable} on a packed edge
    labeling: every node's reaction, evaluated through its tier, rewrites
    its out-edges unchanged. *)
val is_stable : ('x, 'l) t -> labels:int array -> bool

(** [row_array t i] is the kernel-owned array holding node [i]'s reaction
    rows under whichever tier [i] was compiled to (a lookup table, memo
    store, or shared scratch row). It must not be mutated. *)
val row_array : ('x, 'l) t -> int -> int array

(** [row_offset t ~src ~i row], with [row = row_array t i], evaluates node
    [i]'s reaction against the packed edge labeling [src] (computing the
    row on a miss) and returns its offset [base]: the code of [i]'s [k]-th
    out-edge (in [Digraph.out_edges] order) is [row.(base + k)] and the
    output is [row.(base + out_degree i)]. The row is valid only until the
    next call into the kernel. Together the two calls are the allocation-free
    single-node entry point the event-driven simulator ({!Eventsim}) reacts
    through, so an asynchronous activation costs exactly what a kernel step
    charges per node. *)
val row_offset : ('x, 'l) t -> src:int array -> i:int -> int array -> int
