(** Deterministic domain-parallel fan-out over the persistent {!Pool}.

    [map ~domains ~ctx n f] computes [[| f c 0; f c 1; ...; f c (n-1) |]].
    Tasks are split into contiguous index chunks claimed by up to [domains]
    pool domains; each result is written to its own slot of a pre-sized
    array, so the output is identical for every [domains] value — the same
    bit-identical contract the checker's multicore explorer gives.

    Requirements on [f]: it must be deterministic as a function of its index
    given a fresh context, and may only mutate its context in ways that do
    not change results (caches, scratch buffers). Contexts are created
    lazily, at most one per participating domain, and never shared across
    domains concurrently, so a context may hold domain-unsafe state (e.g. a
    {!Kernel.t}).

    [domains] defaults to [1] (everything runs inline on the calling
    domain). With [domains > 1] the work goes through {!Pool.run}: the
    calling domain participates alongside up to [domains - 1] persistent
    pool workers, and several chunks per domain let the pool steal work from
    uneven chunks. Nested calls (a [map] inside a [map] task, or inside any
    pool chunk) automatically run inline. *)

val map : ?domains:int -> ctx:(unit -> 'c) -> int -> ('c -> int -> 'a) -> 'a array

(** The domain count requested through the [PARRUN_DOMAINS] environment
    variable, when set to a positive integer ([None] otherwise — unset,
    malformed, or non-positive). Tests and CI use it to widen the domain
    counts they exercise; since results are bit-identical for every
    [domains] value, honoring it can never change what a caller computes. *)
val env_domains : unit -> int option
