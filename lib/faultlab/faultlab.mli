(** Fault-recovery campaigns: corrupt a steady state, measure recovery,
    aggregate over corruption fractions and seeds.

    Shared by the bench harness (which writes [BENCH_faults.json]) and the
    CLI's [faults] subcommand. Each {!scenario} fixes a protocol, a
    schedule and a steady state, and knows how to measure one corrupted
    run; the per-protocol recovery notions differ because the paper's
    fixtures converge in different senses (output stabilization for
    Example 1, re-locking for the D-counter, re-entering the periodic orbit
    for the ring oscillator).

    Measurements run on the packed {!Stateless_core.Kernel}; campaigns fan
    seeds out over domains through {!Stateless_core.Parrun} and aggregate in
    seed order, so results are identical for every domain count. *)

type recover_fn = fraction:float -> seed:int -> max_steps:int -> int option
(** Steps until one corrupted run has provably recovered; [None] when it
    did not within [max_steps]. *)

type scenario = {
  name : string;
  schedule_name : string;
  fresh : unit -> recover_fn;
      (** Builds a measurement context (a packed kernel and its buffers)
          private to the calling domain. The campaign runner calls this
          once per domain. *)
  recover : recover_fn;
      (** One pre-built instance of [fresh ()], for callers measuring
          single runs from a single domain. *)
}

type fraction_stats = {
  fraction : float;  (** corruption fraction of this row *)
  runs : int;  (** seeds attempted *)
  recovered : int;  (** runs that recovered within the budget *)
  mean : float;  (** mean recovery steps over recovered runs *)
  p50 : int;  (** median recovery steps (nearest-rank) *)
  p95 : int;  (** 95th-percentile recovery steps (nearest-rank) *)
  worst : int;  (** maximum recovery steps among recovered runs *)
}

type campaign = {
  scenario_name : string;
  schedule : string;
  runs_per_fraction : int;
  stats : fraction_stats list;
}

(** Example 1 on [K_n] (default [n = 4]) under the synchronous schedule;
    recovery is output re-stabilization (the
    {!Stateless_core.Fault.recovery_time} measurement, run on the kernel).
    The healthy settle does not depend on the corruption, so each context
    certifies it once per step budget. *)
val example1 : ?n:int -> unit -> scenario

(** The D-counter on an [n]-ring mod [d] (defaults [n = 5], [d = 8]):
    recovery is re-locking — the first step from which [agreed] holds for
    [d] consecutive synchronous steps. *)
val d_counter : ?n:int -> ?d:int -> unit -> scenario

(** The ring oscillator on [n] inverters (default [n = 5], forced odd):
    recovery is the time until the corrupted run provably re-enters a
    periodic orbit under round-robin. *)
val ring_oscillator : ?n:int -> unit -> scenario

(** The three scenarios above with default sizes — the bench campaign. *)
val default_scenarios : unit -> scenario list

(** CLI-facing names accepted by {!scenario_by_name}:
    ["example1"], ["counter"], ["oscillator"]. *)
val scenario_names : string list

val scenario_by_name : ?n:int -> string -> scenario option

(** The default corruption fractions [0.1; 0.25; 0.5; 0.75; 1.0]. *)
val default_fractions : float list

(** Journal codec for one fraction row ([int option array], one slot per
    seed): recovery times as [Int], unrecovered runs as [Null]. Exact
    round-trip, so replayed rows merge bit-identically. *)
val codec : int option array Stateless_campaign.Campaign.codec

(** [cells scenario] compiles the fraction sweep into matrix cells — one
    cell per fraction row, key ["faults/<scenario>/f<i>"], covering the
    row's whole seed block, run by
    {!Stateless_campaign.Campaign.seed_block} (deadline polls between
    seeds, reseeded retries). Config strings exclude [domains]: results
    are identical across domain counts, so a journal written at one
    count replays at any other. [batch] is accepted and ignored (there is
    one stepping path); it remains only for existing callers. *)
val cells :
  ?fractions:float list ->
  ?seeds:int ->
  ?max_steps:int ->
  ?seed0:int ->
  ?batch:int ->
  scenario ->
  int option array Stateless_campaign.Campaign.cell array

(** [run_matrix scenario] runs the fraction sweep through the campaign
    orchestrator under [policy] (default
    {!Stateless_campaign.Campaign.default_policy}) and merges the
    records — in matrix order, so the campaign is bit-identical for
    every domain count and kill/resume split — into the aggregated
    {!campaign} plus the ok/timeout/error counts. A row whose cell timed
    out or errored degrades to zero recoveries. [batch] is accepted and
    ignored, as in {!cells}. *)
val run_matrix :
  ?fractions:float list ->
  ?seeds:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?seed0:int ->
  ?batch:int ->
  ?policy:Stateless_campaign.Campaign.policy ->
  scenario ->
  campaign * Stateless_campaign.Campaign.counts

(** [run scenario] measures [seeds] corrupted runs (default 30) at each
    fraction (default {!default_fractions}) with the given step budget
    (default 10_000) and aggregates. [domains] (default 1) spreads the
    fraction rows over that many domains, each with its own kernel;
    the campaign is identical for every [domains] value. [seed0] (default
    1) is the first per-run seed — runs use [seed0 .. seed0 + seeds - 1],
    so the default reproduces the historical campaigns exactly.
    Equivalent to [fst (run_matrix ...)] under the default policy. *)
val run :
  ?fractions:float list ->
  ?seeds:int ->
  ?max_steps:int ->
  ?domains:int ->
  ?seed0:int ->
  scenario ->
  campaign

(** ASCII table of one campaign. *)
val print_campaign : out_channel -> campaign -> unit

(** Machine-readable JSON for a list of campaigns ([BENCH_faults.json]);
    [host] is the [Bench_json.host] provenance block. [cells] is the
    orchestrator's [(ok, timeout, error)] accounting. *)
val write_json :
  ?host:string ->
  ?cells:int * int * int ->
  out_channel ->
  campaign list ->
  unit
