(** Transient-fault injection and recovery measurement.

    Self-stabilization (Section 2.2) is exactly the promise that a system
    recovers from any transient corruption of its {e labels}, provided code
    and inputs stay intact. This module makes the promise testable: corrupt
    a configuration mid-run — uniformly, or with one of the structured
    faults of {!Fault_model}, or adversarially — and measure
    re-convergence. *)

(** [corrupt p ~seed ~fraction config] returns a copy of [config] in which
    each edge label is independently replaced, with probability [fraction],
    by a uniformly random label {e different} from the current one (so the
    effective corruption rate is exactly [fraction]; outputs are preserved —
    they are re-derived by the protocol anyway). [fraction = 1.0] changes
    every label (label spaces with at least two labels). *)
val corrupt :
  ('x, 'l) Protocol.t ->
  seed:int ->
  fraction:float ->
  'l Protocol.config ->
  'l Protocol.config

(** [corrupt_codes ~card ~seed ~fraction ~src ~dst] is {!corrupt} on label
    codes: it writes into [dst] the codes of the labeling {!corrupt}
    returns for the labeling with codes [src] (in a space of [card]
    labels), making exactly the same random draws — {!corrupt} runs this
    loop. [dst] may be [src]; nothing is allocated beyond the generator's
    state. Alias of {!Fault_model.uniform_codes}. *)
val corrupt_codes :
  card:int -> seed:int -> fraction:float -> src:int array -> dst:int array ->
  unit

(** [inject p ~seed fault config] applies one fault from the typed
    catalogue; alias of {!Fault_model.apply}. *)
val inject :
  ('x, 'l) Protocol.t ->
  seed:int ->
  Fault_model.t ->
  'l Protocol.config ->
  'l Protocol.config

(** [recovery_time p ~input ~init ~schedule ~seed ~fraction ~max_steps]
    certifies output stabilization, corrupts the steady configuration that
    certification reached (the {!Engine.settle} horizon — measured and
    fetched in one pass), and measures output re-stabilization; [None] if
    either phase fails to converge. Phrased in terms of {e output}
    stabilization so it also applies to protocols whose labels never settle
    (e.g. anything clocked by the D-counter). The returned pair is
    [(first_convergence, recovery)]. *)
val recovery_time :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  seed:int ->
  fraction:float ->
  max_steps:int ->
  (int * int) option

(** [recovers_to_same_outputs p ~input ~init ~schedule ~seed ~fraction
    ~max_steps] checks the full self-stabilization contract on one run: the
    outputs after recovery equal the outputs before the fault. *)
val recovers_to_same_outputs :
  ('x, 'l) Protocol.t ->
  input:'x array ->
  init:'l Protocol.config ->
  schedule:Schedule.t ->
  seed:int ->
  fraction:float ->
  max_steps:int ->
  bool option

(** The worst corruption an adversary with a [k]-label budget found. *)
type 'l adversarial = {
  adv_edges : int list;  (** corrupted edge ids, ascending *)
  adv_codes : int list;  (** new label codes, parallel to [adv_edges] *)
  adv_config : 'l Protocol.config;  (** the damaged configuration *)
  adv_recovery : int option;
      (** output re-stabilization time from [adv_config], or [None] when
          the run never recovers within the step budget — the true worst
          case. *)
  adv_exhaustive : bool;
      (** [true] when the result is provably maximal: either every
          candidate was examined, or a non-recovering candidate was found
          (which nothing can beat). [false] when the [limit] cut the
          enumeration short. *)
}

(** [adversarial_corruption p ~input ~schedule ~k ~max_steps config]
    searches over all corruptions of exactly [k] edge labels of [config]
    (each to some different label) for the one maximizing output
    re-stabilization time under [schedule], measuring each candidate with
    the packed {!Kernel}. The enumeration is deterministic; [limit]
    (default [20_000]) bounds the number of candidates examined, since
    there are [C(m, k) * (card - 1)^k] of them. [domains] (default [1])
    fans candidate measurement out over that many domains via {!Parrun};
    the result is identical for every [domains] value.

    @raise Invalid_argument if [k] is out of [1, edges] or the label space
    is a singleton. *)
val adversarial_corruption :
  ?limit:int ->
  ?domains:int ->
  ('x, 'l) Protocol.t ->
  input:'x array ->
  schedule:Schedule.t ->
  k:int ->
  max_steps:int ->
  'l Protocol.config ->
  'l adversarial
