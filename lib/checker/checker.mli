(** Exact verification of r-stabilization on small instances.

    Deciding whether a protocol is label r-stabilizing is PSPACE-complete in
    general (Theorem 4.2), but for a fixed small protocol it is a finite
    reachability question. This module builds, verbatim, the states-graph of
    the proof of Theorem 3.1: vertices are pairs [(ℓ, x)] of a labeling
    [ℓ ∈ Σ^E] and a countdown vector [x ∈ {1..r}^n] recording how many more
    steps each node may stay inactive; from each vertex there is one edge per
    admissible activation set (any nonempty [T] containing every node whose
    countdown expired). Every run of the protocol under an r-fair schedule is
    a path in this graph from an initialization vertex [(ℓ, rⁿ)], and
    conversely.

    The protocol fails to label r-stabilize iff some reachable cycle changes
    the labeling — equivalently, iff some reachable strongly connected
    component contains a label-changing transition. Output r-stabilization
    fails iff some reachable SCC activates a node with two different output
    values (any two edges of an SCC lie on a common cycle, and cycles in the
    states-graph correspond to infinitely-repeatable r-fair schedule
    segments).

    {b Performance.} The labeling successor, the label-changed bit and every
    node output of a states-graph edge depend only on the source labeling
    and the activation set — never on the countdown vector — so transitions
    are memoized per [(labeling, activation set)] ({!Trans_cache}), cutting
    reaction-function evaluations by a factor of up to [rⁿ]. Edges are
    stored in one flat compressed-sparse-row buffer ({!Csr}) that the SCC,
    witness-search and output-conflict passes of {!Stategraph} — the back
    end this checker shares with the adversarial certifiers — read
    directly. Exploration can
    optionally expand each breadth-first level across multiple OCaml
    domains; results are bit-identical for every domain count because state
    interning stays sequential and ordered. *)

(** An explicit non-convergence certificate: starting from the initial
    labeling (given as a mixed-radix code over edge labels, as in
    [Protocol.encode_config]), play [prefix] once, then repeat [cycle]
    forever. Each element is one activation set. *)
type witness = {
  init_code : int;
  prefix : int list list;
  cycle : int list list;
}

type verdict =
  | Stabilizing  (** Converges on every r-fair schedule, from every initial
                     labeling: exhaustively verified. *)
  | Oscillating of witness  (** A concrete diverging run. *)
  | Too_large of { needed : int }
      (** The states-graph exceeds [max_states]; no verdict. *)

(** Counters from the most recent exploration (either checker), for
    benchmarking and regression tracking. *)
type stats = {
  states : int;  (** vertices of the explored states-graph *)
  full_states : int;
      (** vertices of the {e unreduced} states-graph the exploration
          certifies: equal to [states] without symmetry reduction, the sum
          of the interned representatives' orbit sizes with it *)
  edges : int;  (** transitions of the explored states-graph *)
  memo_hits : int;  (** transitions answered from the memo table *)
  memo_misses : int;  (** transitions computed (then cached) *)
  domains_used : int;
}

(** [last_stats ()] are the {!stats} of the most recent {!check_label} or
    {!check_output} call that actually explored (i.e. did not return
    [Too_large]), if any. *)
val last_stats : unit -> stats option

(** [check_label p ~input ~r ~max_states] decides label r-stabilization of
    [p] on the given input, exhaustively over all initial labelings and all
    r-fair schedules. [domains] (default [1]) expands breadth-first levels
    across that many OCaml domains; the verdict and witness are identical
    for every value.

    [symmetry] explores the quotient of the states-graph by the given
    node-automorphism group instead — one canonical representative per
    orbit — preserving the verdict while shrinking the graph by up to the
    group order (see DESIGN.md for the soundness argument). The protocol
    must be equivariant under the group ({!Symmetry.verify} is run first;
    @raise Invalid_argument on failure). [max_states] still budgets the
    {e unreduced} space, which the run certifies in full; {!last_stats}
    reports both [states] (explored) and [full_states] (certified).
    Oscillating verdicts lift the quotient cycle back to a concrete run, so
    witnesses stay {!replay}-checkable; the witness may differ from the
    unreduced explorer's, but the verdict never does.
    @raise Invalid_argument when [r < 1] or the protocol has more than 20
    nodes. *)
val check_label :
  ?domains:int ->
  ?symmetry:Symmetry.t ->
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  r:int ->
  max_states:int ->
  verdict

(** [check_output p ~input ~r ~max_states] decides output r-stabilization.
    The witness cycle exhibits a node whose output changes infinitely
    often. [domains] as in {!check_label}. *)
val check_output :
  ?domains:int ->
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  r:int ->
  max_states:int ->
  verdict

(** [replay p ~input witness] replays a witness on the engine and reports
    whether the run indeed fails to converge: the cycle must return to its
    starting labeling while changing the labeling (for label witnesses) or
    some node's output (for output witnesses) along the way, making the
    divergence machine-checkable independently of the search. *)
val replay :
  ('x, 'l) Stateless_core.Protocol.t -> input:'x array -> witness -> bool

(** [max_stabilizing_r p ~input ~r_limit ~max_states] is the largest
    [r <= r_limit] such that [p] is label r-stabilizing (label r-stabilizing
    is antitone in [r]: more adversarial schedules are allowed as [r]
    grows), [0] if even [r = 1] oscillates. Returns [None] when a size
    budget was hit before reaching a verdict. [symmetry] as in
    {!check_label}. *)
val max_stabilizing_r :
  ?domains:int ->
  ?symmetry:Symmetry.t ->
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  r_limit:int ->
  max_states:int ->
  int option

(** Exact worst-case recovery from transient corruption. *)
type recovery =
  | Worst_recovery of { steps : int; witness_code : int }
      (** The maximum synchronous output-stabilization time over {e all}
          [|Σ|^|E|] labelings — every state a transient fault can leave the
          system in — together with a labeling attaining it. *)
  | Never_settles of { init_code : int }
      (** Some reachable-after-corruption labeling leads to a cycle on which
          a node's output keeps changing: from [init_code] the outputs
          provably never settle under the synchronous schedule. *)
  | Recovery_too_large of { needed : int }
      (** [|Σ|^|E|] exceeds [max_states]; no verdict. *)

(** [worst_case_recovery p ~input ~max_states] computes, over the exhaustive
    synchronous states-graph (a functional graph on labelings, transitions
    and outputs memoized per labeling), the maximum output-stabilization
    time from any corrupted state. Exact, and by construction equal to the
    maximum of [Engine.output_stabilization_time] over all
    [Protocol.decode_config] initializations under the synchronous schedule
    — the simulation harness is its differential oracle (and vice versa).

    [domains] (default [1]) splits the per-labeling sweep into contiguous
    chunks run on that many domains (each with a private transition cache)
    and merges in range order; the verdict — including witness and
    diverging codes — is identical for every [domains] value. *)
val worst_case_recovery :
  ?domains:int ->
  ('x, 'l) Stateless_core.Protocol.t ->
  input:'x array ->
  max_states:int ->
  recovery

(** The seed checker, kept verbatim as an independent oracle for
    differential testing and benchmark baselines: it re-derives every
    transition through [Engine.step] and stores per-state boxed edge arrays,
    sharing no exploration code with the memoized/CSR path. Exploration
    order is identical, so verdicts — including witnesses — must match the
    fast checker exactly. *)
module Naive : sig
  val check_label :
    ('x, 'l) Stateless_core.Protocol.t ->
    input:'x array ->
    r:int ->
    max_states:int ->
    verdict

  val check_output :
    ('x, 'l) Stateless_core.Protocol.t ->
    input:'x array ->
    r:int ->
    max_states:int ->
    verdict
end
