(** Adversarial channel layer: faulty edges and crash-recover nodes over
    the fault-free engines.

    The paper's execution model delivers every written label instantly and
    reliably. This module interposes a typed channel between a node's
    write and its reader's next read, with four fault processes:

    - {b loss} — a label-changing write is dropped; the reader keeps
      seeing the stale label;
    - {b bounded delay} — delivery of a write is deferred by 1..max_delay
      steps through a small per-edge FIFO (a late delivery can clobber a
      fresher value: stale overwrite);
    - {b duplication / stale reread} — an edge reverts to the previous
      label it carried, as if an old packet were re-delivered;
    - {b crash-recover} — a node goes silent for [crash_len] steps
      (neither reacting nor refreshing its output) and wakes with its
      out-edges adversarially relabeled.

    All faults are chosen by a deterministic seeded adversary that may
    take at most {!budget}[.k] fault actions in every window of
    {!budget}[.window] steps. With [k = 0] the adversary consumes no
    randomness and the channel steppers are bit-identical to the
    fault-free {!Stateless_core.Engine} and {!Stateless_core.Kernel}
    runs — the differential tests in [test_netlab.ml] pin this down.

    The adversary is written once, over int label codes, and reacts
    through a reaction engine: {!Packed} steps with
    {!Stateless_core.Kernel}, {!Reference} with the boxed
    {!Stateless_core.Engine}. One seed yields the same storm on both, so
    comparing them checks the kernel under faults at every budget. The
    campaign layer at the bottom sweeps fault-rate levels over
    {!Stateless_core.Parrun} and reports recovery-time and
    output-degradation curves, mirroring [Faultlab]. *)

(** {1 Fault rates and adversary budget} *)

type rates = private {
  loss : float;  (** probability a label-changing write is dropped *)
  delay : float;  (** probability a write is delayed (loss+delay <= 1) *)
  max_delay : int;  (** delays are uniform on [1..max_delay]; >= 1 *)
  dup : float;  (** per-step probability of one stale-reread event *)
  crash : float;  (** per-step probability of one crash event *)
  crash_len : int;  (** steps a crashed node stays silent; >= 1 *)
}

(** Validating constructor; every rate defaults to [0].
    @raise Invalid_argument when a rate is outside [0,1], when
    [loss + delay > 1], or when [max_delay < 1] or [crash_len < 1]. *)
val rates :
  ?loss:float ->
  ?delay:float ->
  ?max_delay:int ->
  ?dup:float ->
  ?crash:float ->
  ?crash_len:int ->
  unit ->
  rates

(** At most [k] fault actions per window of [window] steps; the budget
    recharges at every step [t] with [t mod window = 0]. *)
type budget = { k : int; window : int }

(** @raise Invalid_argument when [k < 0] or [window < 1]. *)
val check_budget : budget -> unit

(** {1 Channel-aware steppers}

    One channel step is:

    + budget recharge at window boundaries;
    + silent nodes count down; a node whose silence expires wakes with
      adversarially relabeled out-edges;
    + the scheduled non-silent nodes take a fault-free protocol step
      against the visible configuration (the reaction engine's
      [step_into]);
    + each label-changing write of this step is, budget permitting, lost
      or delayed into the edge's FIFO;
    + queued writes whose due step arrived are delivered in enqueue
      order;
    + budget permitting, one duplication (stale reread) and one crash may
      fire.

    Decisions are drawn in this fixed order from the seeded RNG. An
    instance carries mutable scratch and is not domain-safe. *)

(** The channel stepper over the reaction engine [R], which it calls
    once per step. *)
module Make (R : Stateless_core.Engine.REACTION) : sig
  type ('x, 'l) t

  (** [create reaction p ~rates ~budget ~schedule ~seed ~init] builds a
      channel run starting from configuration [init]. [reaction] is
      built for [p] and may be shared by successive runs; the channel
      does not mutate it beyond its caches. *)
  val create :
    ('x, 'l) R.t ->
    ('x, 'l) Stateless_core.Protocol.t ->
    rates:rates ->
    budget:budget ->
    schedule:Stateless_core.Schedule.t ->
    seed:int ->
    init:'l Stateless_core.Protocol.config ->
    ('x, 'l) t

  val step : ('x, 'l) t -> unit
  val run : ('x, 'l) t -> steps:int -> unit

  (** Read-only views of the current packed state (do not mutate). *)
  val labels : ('x, 'l) t -> int array

  val outputs : ('x, 'l) t -> int array
  val steps_done : ('x, 'l) t -> int

  (** Total fault actions the adversary has taken so far. *)
  val faults_injected : ('x, 'l) t -> int

  (** The current visible configuration, decoded fresh. *)
  val config : ('x, 'l) t -> 'l Stateless_core.Protocol.config

  (** End-of-storm cleanup: drop all pending deliveries and wake every
      silent node in place (without the adversarial wake relabel). After
      [flush] the visible configuration evolves fault-free. *)
  val flush : ('x, 'l) t -> unit
end

(** The channel stepper over the packed {!Stateless_core.Kernel}. *)
module Packed : module type of Make (Stateless_core.Kernel)

(** The same stepper over {!Stateless_core.Engine.Coded}, the boxed
    engine's reaction: the reference {!Packed} is checked against. *)
module Reference : module type of Make (Stateless_core.Engine.Coded)

(** {1 Degradation / recovery campaigns} *)

type run_result = {
  degraded_steps : int;
      (** storm steps on which the scenario's health probe failed *)
  recovery : int option;
      (** post-storm fault-free recovery time; [None] = did not recover
          within the step bound *)
}

type measure_fn =
  rates:rates ->
  budget:budget ->
  storm:int ->
  seed:int ->
  max_steps:int ->
  run_result

type scenario = {
  name : string;
  schedule_name : string;
  fresh : unit -> measure_fn;
      (** build per-domain state (kernel, healthy reference); the
          returned closure must be deterministic in its arguments *)
}

(** Example 1 on K_n (default [n = 4]): runs the storm from the healthy
    settled state; a step is degraded when the visible outputs differ
    from the healthy settled outputs, and recovery is the post-storm
    output settle time. *)
val example1 : ?n:int -> unit -> scenario

(** The D-counter on an odd ring (defaults [n = 5], [d = 8]): a step is
    degraded when the per-node counter values disagree, and recovery is
    re-locking — the first post-storm step from which all nodes agree for
    [d] consecutive synchronous steps. *)
val d_counter : ?n:int -> ?d:int -> unit -> scenario

val default_scenarios : unit -> scenario list

(** CLI names accepted by {!scenario_by_name}: ["example1"], ["counter"]. *)
val scenario_names : string list

val scenario_by_name : ?n:int -> string -> scenario option

type level_stats = {
  level : rates;
  runs : int;
  recovered : int;
  mean_recovery : float;  (** over recovered runs *)
  p50 : int;  (** nearest-rank percentiles of recovery time *)
  p95 : int;
  worst : int;
  mean_degraded : float;  (** mean fraction of storm steps degraded *)
}

type campaign = {
  scenario_name : string;
  schedule : string;
  budget_k : int;
  budget_window : int;
  storm : int;
  runs_per_level : int;
  levels : level_stats list;
}

(** The default sweep: loss and delay rising together with proportional
    duplication and a light crash process. *)
val default_levels : rates list

(** Journal codec for one level row: each run stored as a
    [[degraded_steps, recovery]] pair ([recovery] null when the run never
    re-locked). Int-only, so the round-trip is exact. *)
val codec : run_result array Stateless_campaign.Campaign.codec

(** [cells ~budget scenario] compiles the level sweep into matrix
    cells — one per rate level, key ["netlab/<scenario>/l<i>"], covering
    the level's whole seed block, run by
    {!Stateless_campaign.Campaign.seed_block} (deadline polls between
    seeds, reseeded retries). Config strings exclude [domains] (results
    are identical across domain counts). [batch] is accepted and ignored
    (there is one stepping path); it remains only for existing
    callers. *)
val cells :
  ?levels:rates list ->
  ?seeds:int ->
  ?storm:int ->
  ?max_steps:int ->
  ?seed0:int ->
  ?batch:int ->
  budget:budget ->
  scenario ->
  run_result array Stateless_campaign.Campaign.cell array

(** [run_matrix ~budget scenario] runs the level sweep through the
    campaign orchestrator under [policy] and merges records in matrix
    order into the aggregated {!campaign} plus ok/timeout/error counts.
    A level whose cell timed out or errored degrades to zero
    recoveries. *)
val run_matrix :
  ?levels:rates list ->
  ?seeds:int ->
  ?storm:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?seed0:int ->
  ?policy:Stateless_campaign.Campaign.policy ->
  budget:budget ->
  scenario ->
  campaign * Stateless_campaign.Campaign.counts

(** [run ~budget scenario] measures every level x seed cell of the grid
    (defaults: {!default_levels}, 20 seeds, storm 400, max_steps 10000)
    through the campaign orchestrator: results are bit-identical for
    every [domains] value. [seed0] (default 1) is the first per-run seed —
    runs use [seed0 .. seed0 + seeds - 1]. Equivalent to
    [fst (run_matrix ...)] under the default policy. *)
val run :
  ?levels:rates list ->
  ?seeds:int ->
  ?storm:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?seed0:int ->
  budget:budget ->
  scenario ->
  campaign

val print_campaign : out_channel -> campaign -> unit

(** [write_json ?host ?cells ?certification oc campaigns] emits the
    [BENCH_netlab.json] document. [host] is a preformatted JSON object
    (as in [Faultlab.host_json]); [cells] is the
    orchestrator's [(ok, timeout, error)] accounting; [certification]
    rows are preformatted JSON objects from the bounded-adversary
    checker (see {!Netcheck}). *)
val write_json :
  ?host:string ->
  ?cells:int * int * int ->
  ?certification:string list ->
  out_channel ->
  campaign list ->
  unit
