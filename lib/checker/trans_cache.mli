(** Transition memoization for the states-graph explorer.

    A step of the states-graph from vertex (ℓ, x) under activation set T
    changes the labeling to δ_T(ℓ) and produces outputs that depend only on
    (ℓ, T) — never on the countdown vector x. The explorer visits each
    labeling ℓ under up to r^n distinct countdowns, so memoizing
    (lab_code, mask) → (next_lab, changed) removes a factor of up to r^n
    reaction-function evaluations from exploration.

    Per labeling the cache holds one block of [2n + 2^n] ints: [n] per-node
    mixed-radix label deltas (node [i] activated alone moves the labeling
    code by [blk.(off + i)]), then [n] per-node outputs
    ([blk.(off + n + i)]), then [2^n] memoized packed transitions
    ([next_lab * 2 + changed], [-1] when unfilled, at [blk.(off + 2n +
    mask)]). {!block} exposes the raw block so a fused explorer loop can
    inline {!step_in} by this layout; everything else should go through
    {!step} and {!output}.

    A cache instance carries mutable scratch and counters and is {b not}
    domain-safe: create one per domain (the multicore explorer does). *)

type ('x, 'l) t

(** {2 Reusable storage}

    A [store] holds a cache's arrays independently of the protocol's
    types, so it can outlive the cache: the checker keeps one per domain
    and binds every exploration's cache to it. Only one cache may use a
    store at a time — binding a new cache invalidates the previous one.

    Reuse contract: {!create} keeps the store's arrays when they fit the
    new cache, grows them when they do not, and shrinks any array that
    exceeds its floor (2^16 words of blocks, 2^16 fill flags, 2^10 index
    slots) and holds more than 8x what the previous and the new cache
    use — so one huge exploration does not pin its memory for every later
    small one. *)

type store

val store : unit -> store

(** Words of block storage currently allocated — for tests. *)
val capacity : store -> int

(** [create st p ~input ~lab_count] binds a cache for the [lab_count]
    labeling codes of [p] to the store [st]. Blocks are filled lazily on
    first touch. When [lab_count * (2n + 2^n)] fits a 2^22-word budget
    they are indexed directly by labeling code; beyond it they are
    appended in first-touch order and found through an open-addressing
    index, so memory scales with the labelings touched rather than with
    [lab_count]. *)
val create :
  store ->
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  lab_count:int ->
  ('x, 'l) t

(** [block t lab_code] is the memo block of [lab_code] (created on first
    touch) as [(backing_array, offset)], laid out as documented above.
    The pair is valid until the next {!block}, {!step} or {!output} call
    on [t], which may move the blocks to a larger array. *)
val block : ('x, 'l) t -> int -> int array * int

(** [step_in t blk off ~lab_code ~mask] is {!step} with the block lookup
    hoisted out — callers stepping one labeling under many activation sets
    resolve {!block} once and reuse [(blk, off)]. *)
val step_in : ('x, 'l) t -> int array -> int -> lab_code:int -> mask:int -> int

(** [step t ~lab_code ~mask] is [next_lab * 2 + changed] for the transition
    of labeling [lab_code] under activation set [mask]. *)
val step : ('x, 'l) t -> lab_code:int -> mask:int -> int

(** [output t ~lab_code ~node] is the output value node [node] produces
    when activated on labeling [lab_code] — independent of the activation
    set. *)
val output : ('x, 'l) t -> lab_code:int -> node:int -> int

(** {2 Memo counters} — for {!Checker.stats} and regression tracking. *)

val hits : ('x, 'l) t -> int
val misses : ('x, 'l) t -> int

(** Fused explorer loops batch their counter updates locally and flush them
    here once per exploration. *)

val add_hits : ('x, 'l) t -> int -> unit
val add_misses : ('x, 'l) t -> int -> unit
