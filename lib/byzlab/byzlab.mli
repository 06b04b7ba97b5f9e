(** Byzantine-node attack layer over the execution engines.

    A designated set [B] of nodes runs an attack {!strategy} instead of
    the protocol: on each scheduled activation a Byzantine node
    overwrites its out-edges with labels of the strategy's choosing,
    immediately after the scheduled correct nodes' reactions land.

    The attack is written once, over int label codes, and the correct
    nodes react through a reaction engine: {!Packed} steps with
    {!Stateless_core.Kernel}, {!Reference} with the boxed
    {!Stateless_core.Engine}. One seed yields the same attack on both,
    and with [B = ∅] no strategy ever acts — no draw occurs and the
    steppers are bit-identical to the fault-free engines.

    The campaign layer sweeps Byzantine placements over Example 1
    cliques, a relay ring and the D-counter through
    {!Stateless_core.Parrun} (bit-identical for every domain count),
    measuring stabilized fraction, empirical containment radius and
    recovery time per placement. *)

type strategy =
  | Seeded_random
      (** one uniform label code per out-edge of each activated
          Byzantine node, drawn from the stepper's seeded RNG
          (activation order, then out-edge order) *)
  | Anti_majority
      (** deterministically write the label code rarest in the visible
          pre-step labeling (ties to the smallest code) *)
  | Replay of Byzcheck.witness
      (** play the witness's scripted write stream: prefix once, then
          the cycle forever (no RNG) *)

val strategy_name : strategy -> string

(** CLI-facing names: ["random"] and ["anti-majority"] ([Replay] carries
    a witness and is not nameable). *)
val strategy_by_name : string -> strategy option

val strategy_names : string list

(** The Byzantine stepper over the reaction engine [R], which the
    scheduled correct nodes react through once per step. *)
module Make (R : Stateless_core.Engine.REACTION) : sig
  type ('x, 'l) t

  (** [create reaction p ~byz ~strategy ~schedule ~seed ~init] builds a
      stepper with Byzantine set [byz]. [reaction] is built for [p] and
      may be shared by successive runs (kernels are not domain-safe —
      one per domain).
      @raise Invalid_argument on an out-of-range or duplicate Byzantine
      node, or a [Replay] witness writing a non-Byzantine edge. *)
  val create :
    ('x, 'l) R.t ->
    ('x, 'l) Stateless_core.Protocol.t ->
    byz:int list ->
    strategy:strategy ->
    schedule:Stateless_core.Schedule.t ->
    seed:int ->
    init:'l Stateless_core.Protocol.config ->
    ('x, 'l) t

  val step : ('x, 'l) t -> unit
  val run : ('x, 'l) t -> steps:int -> unit

  (** Read-only views of the current packed state (invalidated by the
      next {!step}). *)
  val labels : ('x, 'l) t -> int array

  val outputs : ('x, 'l) t -> int array
  val steps_done : ('x, 'l) t -> int

  (** Total Byzantine edge writes performed so far (0 forever when
      [byz = []]). *)
  val writes_done : ('x, 'l) t -> int

  val config : ('x, 'l) t -> 'l Stateless_core.Protocol.config
end

(** The Byzantine stepper over the packed {!Stateless_core.Kernel}. *)
module Packed : module type of Make (Stateless_core.Kernel)

(** The same stepper over {!Stateless_core.Engine.Coded}, the boxed
    engine's reaction: the reference {!Packed} is checked against. *)
module Reference : module type of Make (Stateless_core.Engine.Coded)

(** One attacked run: [deviant_steps] attack steps had some correct node
    deviating from the scenario's reference, [deviant_nodes] correct
    nodes ever deviated, [max_radius] is the largest hop distance from
    [B] of a deviating correct node (-1 when none did), and [recovery]
    is the post-attack recovery time (the Byzantine nodes resume correct
    behavior; [None] = never recovered within the budget). *)
type run_result = {
  deviant_steps : int;
  deviant_nodes : int;
  max_radius : int;
  recovery : int option;
}

type measure_fn =
  byz:int list ->
  strategy:strategy ->
  attack:int ->
  seed:int ->
  max_steps:int ->
  run_result

type scenario = {
  name : string;
  schedule_name : string;
  nodes : int;
  placements : int list list;  (** default Byzantine placements swept *)
  fresh : unit -> measure_fn;
      (** build per-domain measurement state (kernels are not
          domain-safe) *)
}

(** Example 1 on K_n (default [n = 4]): reference = the healthy run's
    settled outputs; recovery = post-attack output settle time. *)
val example1 : ?n:int -> unit -> scenario

(** A unidirectional relay ring (default [n = 6]): every node forwards
    and outputs the label it reads; reference = all-zero outputs.
    Injected labels keep circulating after the attack, so the ring
    generally does not recover — a containment worst case. *)
val relay_ring : ?n:int -> unit -> scenario

(** The D-counter (default [n = 5], [d = 8]): a node deviates when its
    counter differs from the most common value among correct nodes;
    recovery = re-locking (d consecutive agreed synchronous steps). *)
val d_counter : ?n:int -> ?d:int -> unit -> scenario

val default_scenarios : unit -> scenario list
val scenario_names : string list
val scenario_by_name : ?n:int -> string -> scenario option

type level_stats = {
  byz : int list;
  runs : int;
  mean_deviant : float;  (** mean fraction of attack steps deviant *)
  mean_stabilized : float;
      (** mean fraction of correct nodes that never deviated *)
  worst_radius : int;
      (** max empirical containment radius over runs (-1 = contained) *)
  recovered : int;
  mean_recovery : float;
  p50 : int;
  p95 : int;
  worst : int;
}

type campaign = {
  scenario_name : string;
  schedule : string;
  strategy : string;
  attack : int;
  runs_per_level : int;
  levels : level_stats list;
}

(** Journal codec for one placement row: each run stored as
    [[deviant_steps, deviant_nodes, max_radius, recovery]] ([recovery]
    null when the run never recovered). Int-only, exact round-trip. *)
val codec : run_result array Stateless_campaign.Campaign.codec

(** [cells ~strategy sc] compiles the placement sweep into matrix
    cells — one per Byzantine placement, key ["byz/<scenario>/p<i>"],
    covering the placement's whole seed block, run by
    {!Stateless_campaign.Campaign.seed_block} (deadline polls between
    seeds, reseeded retries). [Replay] strategies enter the config as a
    structural hash of the witness — journal replay across processes is
    only meaningful for the nameable strategies. [batch] is accepted and
    ignored (there is one stepping path); it remains only for existing
    callers. *)
val cells :
  ?placements:int list list ->
  ?seeds:int ->
  ?attack:int ->
  ?max_steps:int ->
  ?seed0:int ->
  ?batch:int ->
  strategy:strategy ->
  scenario ->
  run_result array Stateless_campaign.Campaign.cell array

(** [run_matrix ~strategy sc] runs the placement sweep through the
    campaign orchestrator under [policy] and merges records in matrix
    order into the aggregated {!campaign} plus ok/timeout/error counts.
    A placement whose cell timed out or errored degrades to a fully
    stabilized, zero-deviation level. *)
val run_matrix :
  ?placements:int list list ->
  ?seeds:int ->
  ?attack:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?seed0:int ->
  ?policy:Stateless_campaign.Campaign.policy ->
  strategy:strategy ->
  scenario ->
  campaign * Stateless_campaign.Campaign.counts

(** [run ~strategy sc] sweeps [placements] (default [sc.placements]) ×
    [seeds] runs each (seeds [seed0 .. seed0 + seeds - 1], default
    [seed0 = 1]) through the campaign orchestrator — results are
    bit-identical for every [domains]. Equivalent to [fst (run_matrix ...)] under the default policy. *)
val run :
  ?placements:int list list ->
  ?seeds:int ->
  ?attack:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?seed0:int ->
  strategy:strategy ->
  scenario ->
  campaign

val print_campaign : out_channel -> campaign -> unit

(** [write_json ?host ?cells ?certification oc campaigns] renders
    BENCH_byz JSON: a host block, the orchestrator's [(ok, timeout, error)]
    cell accounting, certification rows (prebuilt JSON objects) and
    per-placement campaign rows. *)
val write_json :
  ?host:string ->
  ?cells:int * int * int ->
  ?certification:string list ->
  out_channel ->
  campaign list ->
  unit
