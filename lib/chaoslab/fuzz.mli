(** Cross-engine differential fuzzer with automatic counterexample
    shrinking.

    A {!scenario} is a random protocol × topology × schedule ×
    fault/Byzantine configuration, generated from a seed through
    {!Stateless_core.Proptest.protocol_of}. {!check} runs it through
    every applicable differential pair:

    - boxed {!Stateless_core.Engine} (the reference) against the packed
      {!Stateless_core.Kernel} and — on synchronous schedules —
      {!Stateless_core.Eventsim} in its synchronous anchor mode;
    - the asynchronous {!Stateless_core.Eventsim} (latency shape, rate
      and crash rate drawn from the scenario seed, the scenario's
      loss/duplication rates) run through [4 * steps] random horizon
      cuts, against the same seed run to each cut in one call;
    - one channel adversary run over both reaction engines
      ([Netlab.Reference] against [Netlab.Packed]) under the scenario's
      loss/duplication rates and adversary budget;
    - one Byzantine adversary run over both reaction engines
      ([Byzlab.Reference] against [Byzlab.Packed]) when the scenario
      places adversaries;
    - the production checker, Netcheck at budget 0 and Byzcheck with no
      Byzantine node against the naive oracle ([r = 1]) when the
      labeling space is small enough to enumerate; with a budget (resp.
      Byzantine nodes) in the scenario, Netcheck's (resp. Byzcheck's)
      oscillation witness must also replay on Engine and Kernel.

    Any divergence is greedily shrunk along a lattice of reductions
    (truncate the schedule, drop nodes and extra edges, shrink the label
    alphabet, zero the fault budgets, drop Byzantine nodes, simplify the
    schedule) to a locally minimal witness, serialized as a replayable
    {!Stateless_campaign.Value} record.

    To validate the fuzzer itself, {!check} can run a deliberately
    broken stepper ({!mutant}) alongside the real engines: the fuzzer
    must find and shrink the planted bug.

    Everything is a pure function of the scenario (and thus of the run
    seed): a witness replays bit-identically on any machine. *)

type sched_kind = Sync | Rr | Fair of int

(** Planted engine bugs: [Stale_read] serializes the activation set so
    later nodes react to already-updated state; [Dropped_write] loses
    node 0's first out-edge write whenever node 0 is scheduled. *)
type mutant = Stale_read | Dropped_write

type scenario = {
  seed : int;  (** protocol / init / fault-stream seed *)
  nodes : int;
  extra : int;  (** extra edges beyond the strongly-connected base *)
  card : int;  (** label alphabet size *)
  steps : int;  (** schedule length *)
  sched : sched_kind;
  loss : float;  (** channel loss rate (netlab pair) *)
  dup : float;  (** channel duplication rate (netlab pair) *)
  budget_k : int;  (** adversary fault budget per window (netlab pair) *)
  byz : int;  (** Byzantine node count (byzlab pair) *)
}

type divergence = {
  scenario : scenario;
  pair : string * string;  (** the two runners that disagreed *)
  step : int;  (** first diverging step (0 for verdict pairs) *)
  detail : string;
}

val mutant_name : mutant -> string
val mutant_of_name : string -> mutant option
val sched_name : sched_kind -> string
val sched_of_name : string -> sched_kind option

(** The structural weight the shrinker minimizes (strictly decreasing
    along every candidate move, so shrinking terminates). *)
val size : scenario -> int

(** Run every applicable differential pair; [None] means all engines
    agreed. [mutant] adds the planted-bug stepper to the core group. *)
val check : ?mutant:mutant -> scenario -> divergence option

(** Greedy first-improvement descent along the shrink lattice: adopts
    any strictly smaller scenario that still diverges (possibly on a
    different pair) and restarts from it. [max_checks] (default 400)
    bounds the total predicate calls. *)
val shrink : ?mutant:mutant -> ?max_checks:int -> divergence -> divergence

(** [size shrunk / size original]. *)
val shrink_ratio : original:divergence -> shrunk:divergence -> float

val scenario_to_value : scenario -> Stateless_campaign.Value.t
val scenario_of_value : Stateless_campaign.Value.t -> scenario option

(** The replayable witness record: scenario, the mutant it was found
    under (if any), the diverging pair, step and detail. *)
val witness_to_value :
  ?mutant:mutant -> divergence -> Stateless_campaign.Value.t

(** Re-run {!check} on a serialized witness's scenario (under its
    recorded mutant): [Ok (Some _)] means the divergence reproduces,
    [Ok None] that it no longer does, [Error _] that the record is not
    a witness. *)
val replay :
  Stateless_campaign.Value.t -> (divergence option, string) result

(** The [i]-th scenario of a fuzz run — deterministic in [(seed, i)]. *)
val gen : seed:int -> int -> scenario

type found = { original : divergence; shrunk : divergence }

type report = {
  seed : int;
  budget : int;
  tried : int;
  comparisons : int;  (** differential pairs executed *)
  found : found list;
  mean_shrink_ratio : float;  (** 1.0 when nothing diverged *)
}

(** [run ~seed ~budget ()] checks [budget] generated scenarios,
    shrinking every divergence (disable with [~shrink_found:false]). *)
val run :
  ?mutant:mutant ->
  ?shrink_found:bool ->
  seed:int ->
  budget:int ->
  unit ->
  report
