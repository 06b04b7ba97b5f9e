(** Executing stateless protocols under a schedule (Section 2.1-2.2).

    The engine is the paper's global transition function
    [δ : Σ^E × X^n × 2^[n] → Σ^E × Y^n]: at each step the scheduled nodes
    atomically apply their reaction functions to the {e previous}
    configuration. It detects label stabilization (fixed point of every
    reaction function), output stabilization, and — for periodic schedules —
    exact oscillation, by recording one configuration per schedule period. *)

type 'l outcome =
  | Stabilized of { rounds : int; config : 'l Protocol.config }
      (** The labeling reached a stable labeling after [rounds] steps. *)
  | Oscillating of { entered : int; period : int }
      (** The run is eventually periodic with the given period (in steps)
          and the labeling changes within the cycle: the protocol does not
          label-stabilize on this run. Only reported for periodic
          schedules. *)
  | Exhausted of 'l Protocol.config
      (** [max_steps] elapsed without a verdict. *)

(** [step p ~input config ~active] applies one global transition: every node
    of [active] reacts to [config]; all other labels and outputs persist.
    Functional — [config] is not mutated. *)
val step :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  'l Protocol.config ->
  active:int list ->
  'l Protocol.config

(** [step_into p ~input config ~active ~into] is {!step} writing the
    successor configuration into [into]'s arrays instead of allocating a
    fresh configuration — the hot-loop path for simulators and checkers.
    Reactions are still computed against [config], so [into] must not share
    arrays with [config]; [config] is not mutated. *)
val step_into :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  'l Protocol.config ->
  active:int list ->
  into:'l Protocol.config ->
  unit

(** {1 Reactions on packed label codes} *)

(** One global transition on packed buffers: [src]/[dst] hold one label
    code per edge, [src_outputs]/[dst_outputs] one output per node. Every
    node of [active] reacts to [src]; all other labels and outputs
    persist. {!Kernel} satisfies this signature, and so does {!Coded}. *)
module type REACTION = sig
  type ('x, 'l) t

  val step_into :
    ('x, 'l) t ->
    src:int array ->
    src_outputs:int array ->
    dst:int array ->
    dst_outputs:int array ->
    active:int list ->
    unit
end

(** {!step_into} as a {!REACTION}: decode the codes with the label space,
    step the boxed configuration, encode the successor back. The
    reference the packed kernel is differentially checked against, for
    code that is written once over label codes. *)
module Coded : sig
  include REACTION

  val create : ('x, 'l) Protocol.t -> input:'x array -> ('x, 'l) t
end

(** [run p ~input ~init ~schedule ~steps] iterates {!step} for exactly
    [steps] steps and returns the final configuration. *)
val run :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  steps:int ->
  'l Protocol.config

(** [trace p ~input ~init ~schedule ~steps] is the list of configurations
    [c_0 = init, c_1, ..., c_steps]. *)
val trace :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  steps:int ->
  'l Protocol.config list

(** [run_until_stable p ~input ~init ~schedule ~max_steps] runs until the
    labeling is stable, an oscillation is proven (periodic schedules only),
    or [max_steps] elapses. Stability is checked against {e all} reaction
    functions, not only the scheduled ones, matching the paper's definition
    of a stable labeling. *)
val run_until_stable :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  'l outcome

(** [refreshed_outputs p ~input config] is every node's output were it
    activated on [config] — the settled outputs when [config] is a stable
    labeling. *)
val refreshed_outputs :
  ('x, 'l) Protocol.t -> input:'x array -> 'l Protocol.config -> int array

(** Everything one certified run yields, computed in a single traversal. *)
type 'l settled = {
  settle_time : int;
      (** The earliest step after which every node's output never changes
          again on this run. Time 0 means outputs were already converged in
          the initial configuration. *)
  settled_outputs : int array;
      (** The output vector from [settle_time] on: at a stable labeling the
          outputs after one more synchronous refresh, along an oscillation
          the (constant) cycle outputs. *)
  horizon_config : 'l Protocol.config;
      (** The configuration at the certification horizon — a steady state of
          the run. Callers that corrupt a converged run and re-measure
          should corrupt this instead of re-simulating with {!run}. *)
}

(** [settle p ~input ~init ~schedule ~max_steps] runs to a verdict and
    certifies output stabilization in one pass. [None] when [max_steps]
    elapses without a verdict, or when the run provably never
    output-stabilizes (it oscillates and some node's output changes within
    the cycle). *)
val settle :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  'l settled option

(** [outputs_after_convergence p ~input ~init ~schedule ~max_steps] decides
    output stabilization on one run: if the run label-stabilizes, outputs are
    read at the fixed point (after one more synchronous refresh so every node
    has reported); if it oscillates with every node's output constant along
    the cycle, those outputs are returned; otherwise [None]. Equivalent to
    the [settled_outputs] field of {!settle}. *)
val outputs_after_convergence :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  int array option

(** [output_stabilization_time p ~input ~init ~schedule ~max_steps] is the
    earliest step after which every node's output never changes again on
    this run, when that can be certified ({!run_until_stable} reached a
    verdict and the outputs do settle — an oscillating run whose cycle
    changes some output yields [None]). Time 0 means outputs were already
    converged in [init]. The [settle_time] field of {!settle}. *)
val output_stabilization_time :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  int option

(** [label_stabilization_time] is the analogue for labels: the earliest step
    after which the labeling never changes again (and is stable). *)
val label_stabilization_time :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  max_steps:int ->
  int option

(** [synchronous_round_complexity p ~input ~max_steps] measures the paper's
    round complexity restricted to given inputs: the max, over all supplied
    inputs and {e all} [|Σ|^|E|] initial labelings, of the synchronous
    output-stabilization time. Only usable when the labeling space is
    enumerable; raises [Invalid_argument] when [|Σ|^|E|] overflows. *)
val synchronous_round_complexity :
  ('x, 'l) Protocol.t -> inputs:'x array list -> max_steps:int -> int option

(** Like {!synchronous_round_complexity} but sampling [samples] random
    initial labelings per input instead of enumerating. *)
val sampled_round_complexity :
  ('x, 'l) Protocol.t ->
  inputs:'x array list ->
  samples:int ->
  seed:int ->
  max_steps:int ->
  int option
