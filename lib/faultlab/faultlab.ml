module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Schedule = Stateless_core.Schedule
module Label = Stateless_core.Label
module Fault = Stateless_core.Fault
module Bench_json = Stateless_core.Bench_json
module Clique_example = Stateless_core.Clique_example
module D_counter = Stateless_counter.D_counter
module Feedback = Stateless_games.Feedback
module Digraph = Stateless_graph.Digraph
module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value

type recover_fn = fraction:float -> seed:int -> max_steps:int -> int option

type scenario = {
  name : string;
  schedule_name : string;
  fresh : unit -> recover_fn;
  recover : recover_fn;
}

type fraction_stats = {
  fraction : float;
  runs : int;
  recovered : int;
  mean : float;
  p50 : int;
  p95 : int;
  worst : int;
}

type campaign = {
  scenario_name : string;
  schedule : string;
  runs_per_fraction : int;
  stats : fraction_stats list;
}

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

(* Each scenario's [fresh] builds a measurement context — a packed
   {!Kernel} plus its buffers — and returns a closure measuring one
   corrupted run with it. Kernels hold domain-private scratch, so the
   campaign runner calls [fresh] once per domain; [recover] is one
   [fresh] instance for callers that measure single runs from one
   domain. *)

let scenario name schedule_name fresh =
  { name; schedule_name; fresh; recover = fresh () }

(* [config]'s label codes and outputs, in fresh buffers: the contexts
   corrupt and step codes, never boxed configurations. *)
let codes kern config =
  let labels = Array.make (Kernel.num_edges kern) 0
  and outputs = Array.make (Kernel.num_nodes kern) 0 in
  Kernel.load kern config ~labels ~outputs;
  (labels, outputs)

let example1 ?(n = 4) () =
  let n = max 3 n in
  let p = Clique_example.make n in
  let input = Clique_example.input n in
  let init = Clique_example.oscillation_init p in
  let schedule = Schedule.synchronous n in
  let card = p.Protocol.space.Label.card in
  let m = Protocol.num_edges p in
  let fresh () =
    let kern = Kernel.create p ~input in
    let labels = Array.make m 0 in
    (* The healthy settle does not depend on the corruption: each context
       certifies it once per step budget and keeps its horizon as codes. *)
    let memo = ref None in
    let healthy max_steps =
      match !memo with
      | Some (k, h) when k = max_steps -> h
      | _ ->
          let h =
            Option.map
              (fun (s : _ Engine.settled) -> codes kern s.Engine.horizon_config)
              (Kernel.settle kern ~init ~schedule ~max_steps)
          in
          memo := Some (max_steps, h);
          h
    in
    fun ~fraction ~seed ~max_steps ->
      (* [Fault.recovery_time] through the kernel, on label codes: corrupt
         the healthy horizon, re-settle. *)
      match healthy max_steps with
      | None -> None
      | Some (horizon, outputs) ->
          Fault.corrupt_codes ~card ~seed ~fraction ~src:horizon ~dst:labels;
          Kernel.settle_codes kern ~labels ~outputs ~schedule ~max_steps
  in
  scenario
    (Printf.sprintf "example1_k%d" n)
    schedule.Schedule.name fresh

(* The D-counter's outputs tick forever, so recovery is re-locking: the
   first step from which [agreed] holds for [d] consecutive synchronous
   steps after the steady (burned-in) configuration is corrupted. *)
let d_counter ?(n = 5) ?(d = 8) () =
  let t = D_counter.make ~n ~d () in
  let p = D_counter.protocol t in
  let input = D_counter.input t in
  let schedule = Schedule.synchronous n in
  let steady =
    Engine.run p ~input
      ~init:(Protocol.uniform_config p (p.Protocol.space.Label.decode 0))
      ~schedule ~steps:(D_counter.burn_in t)
  in
  let window = d in
  let everyone = List.init n Fun.id in
  let m = Protocol.num_edges p in
  (* [D_counter.agreed] reads the counter off each node's first outgoing
     edge; precompute those edge ids so the packed loop can agree-check
     label codes without materializing a configuration. *)
  let first_out =
    Array.init n (fun j -> (Digraph.out_edges p.Protocol.graph j).(0))
  in
  let card = p.Protocol.space.Label.card in
  let fresh () =
    let kern = Kernel.create p ~input in
    let bufs = Array.init 2 (fun _ -> Array.make m 0) in
    let obufs = Array.init 2 (fun _ -> Array.make n 0) in
    let steady_labels, steady_outputs = codes kern steady in
    let counter_at labels j =
      let _, (_, _, c) = Kernel.decode_label kern labels.(first_out.(j)) in
      c
    in
    let agreed labels =
      let c0 = counter_at labels 0 in
      let rec go j = j >= n || (counter_at labels j = c0 && go (j + 1)) in
      go 1
    in
    fun ~fraction ~seed ~max_steps ->
      let cur = ref bufs.(0) and curo = ref obufs.(0) in
      let nxt = ref bufs.(1) and nxto = ref obufs.(1) in
      Fault.corrupt_codes ~card ~seed ~fraction ~src:steady_labels ~dst:!cur;
      Array.blit steady_outputs 0 !curo 0 n;
      let run_len = ref 0 in
      let found = ref None in
      let s = ref 0 in
      while !found = None && !s <= max_steps do
        if agreed !cur then begin
          incr run_len;
          if !run_len >= window then found := Some (!s - window + 1)
        end
        else run_len := 0;
        Kernel.step_into kern ~src:!cur ~src_outputs:!curo ~dst:!nxt
          ~dst_outputs:!nxto ~active:everyone;
        let tl = !cur and to_ = !curo in
        cur := !nxt;
        curo := !nxto;
        nxt := tl;
        nxto := to_;
        incr s
      done;
      !found
  in
  scenario
    (Printf.sprintf "d_counter_n%d_d%d" n d)
    schedule.Schedule.name fresh

(* The ring oscillator never output-stabilizes by design; recovery is the
   time until the corrupted run provably re-enters a periodic orbit (the
   [entered] bound of the engine's oscillation verdict) under round-robin,
   whose periodicity makes the verdict exact. *)
let ring_oscillator ?(n = 5) () =
  let n = if n mod 2 = 0 then n + 1 else max 3 n in
  let p = Feedback.ring_oscillator n in
  let input = Array.make n () in
  let schedule = Schedule.round_robin n in
  let steady =
    Engine.run p ~input
      ~init:(Protocol.uniform_config p false)
      ~schedule ~steps:(4 * n)
  in
  let card = p.Protocol.space.Label.card in
  let fresh () =
    let kern = Kernel.create p ~input in
    let steady_labels, outputs = codes kern steady in
    let labels = Array.make (Array.length steady_labels) 0 in
    fun ~fraction ~seed ~max_steps ->
      Fault.corrupt_codes ~card ~seed ~fraction ~src:steady_labels ~dst:labels;
      match
        Kernel.run_until_stable_codes kern ~labels ~outputs ~schedule ~max_steps
      with
      | Kernel.Oscillating { entered; _ } -> Some entered
      | Kernel.Stabilized rounds -> Some rounds
      | Kernel.Exhausted -> None
  in
  scenario
    (Printf.sprintf "ring_oscillator_%d" n)
    schedule.Schedule.name fresh

let default_scenarios () = [ example1 (); d_counter (); ring_oscillator () ]

let scenario_names = [ "example1"; "counter"; "oscillator" ]

let scenario_by_name ?n name =
  match name with
  | "example1" -> Some (example1 ?n ())
  | "counter" -> Some (d_counter ?n ())
  | "oscillator" -> Some (ring_oscillator ?n ())
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Campaign runner                                                     *)
(* ------------------------------------------------------------------ *)

let default_fractions = [ 0.1; 0.25; 0.5; 0.75; 1.0 ]

(* One matrix cell per fraction row covering its whole seed block: fine
   enough that a resumed campaign skips completed rows. The config string
   names everything the row's results depend on — domains are
   deliberately absent, because results are identical across domain
   counts by the determinism contract, so a journal written at one domain
   count replays at any other. *)
let codec : int option array Campaign.codec =
  {
    encode =
      (fun row ->
        Value.List
          (Array.to_list
             (Array.map
                (function Some t -> Value.Int t | None -> Value.Null)
                row)));
    decode =
      (fun v ->
        Option.map
          (fun items ->
            Array.of_list items)
          (Value.opt_int_list v));
  }

let cells ?(fractions = default_fractions) ?(seeds = 30) ?(max_steps = 10_000)
    ?(seed0 = 1) ?batch:_ sc =
  Array.of_list
    (List.mapi
       (fun fi fraction ->
         {
           Campaign.key = Printf.sprintf "faults/%s/f%d" sc.name fi;
           config =
             Printf.sprintf
               "faults scenario=%s schedule=%s fraction=%.6g seeds=%d \
                seed0=%d max_steps=%d"
               sc.name sc.schedule_name fraction seeds seed0 max_steps;
           run =
             (fun ~deadline ~attempt ->
               Campaign.seed_block ~seeds ~seed0 ~deadline ~attempt
                 ~fresh:(fun () ->
                   let recover = sc.fresh () in
                   fun seed -> recover ~fraction ~seed ~max_steps));
         })
       fractions)

(* Aggregate one fraction row. A [None] row (the cell timed out or
   errored) degrades to zero recoveries — the merged campaign still has
   a deterministic row for it, so resumed and degraded merges stay
   shape-identical. *)
let stats_of_row ~seeds fraction row =
  let s = Campaign.summary (Option.value row ~default:[||]) in
  {
    fraction;
    runs = seeds;
    recovered = s.recovered;
    mean = s.mean;
    p50 = s.p50;
    p95 = s.p95;
    worst = s.worst;
  }

let run_matrix ?(fractions = default_fractions) ?(seeds = 30)
    ?(max_steps = 10_000) ?(domains = 1) ?(seed0 = 1) ?batch:_ ?policy sc =
  let cs = cells ~fractions ~seeds ~max_steps ~seed0 sc in
  let outcome = Campaign.run ~domains ?policy ~codec cs in
  let stats =
    List.mapi
      (fun fi fraction ->
        stats_of_row ~seeds fraction
          outcome.Campaign.records.(fi).Campaign.result)
      fractions
  in
  ( {
      scenario_name = sc.name;
      schedule = sc.schedule_name;
      runs_per_fraction = seeds;
      stats;
    },
    outcome.Campaign.counts )

let run ?fractions ?seeds ?max_steps ?domains ?seed0 sc =
  fst (run_matrix ?fractions ?seeds ?max_steps ?domains ?seed0 sc)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)


let print_campaign oc c =
  Printf.fprintf oc "  %s (schedule: %s, %d runs per fraction)\n"
    c.scenario_name c.schedule c.runs_per_fraction;
  Printf.fprintf oc "    %10s %10s %10s %8s %8s %8s\n" "fraction" "recovered"
    "mean" "p50" "p95" "worst";
  List.iter
    (fun s ->
      Printf.fprintf oc "    %10.2f %7d/%-2d %10.2f %8d %8d %8d\n" s.fraction
        s.recovered s.runs s.mean s.p50 s.p95 s.worst)
    c.stats

let write_json ?host ?cells oc campaigns =
  Bench_json.write ~benchmark:"faults" ?host ?cells oc (fun oc ->
      Printf.fprintf oc "  \"campaigns\": [\n";
      List.iteri
        (fun i c ->
          Printf.fprintf oc
            "    { \"scenario\": %S, \"schedule\": %S, \
             \"runs_per_fraction\": %d,\n\
            \      \"fractions\": [\n"
            c.scenario_name c.schedule c.runs_per_fraction;
          List.iteri
            (fun j s ->
              Printf.fprintf oc
                "        { \"fraction\": %.3f, \"runs\": %d, \"recovered\": \
                 %d, \"mean_steps\": %.3f, \"p50_steps\": %d, \"p95_steps\": \
                 %d, \"worst_steps\": %d }%s\n"
                s.fraction s.runs s.recovered s.mean s.p50 s.p95 s.worst
                (if j = List.length c.stats - 1 then "" else ","))
            c.stats;
          Printf.fprintf oc "      ] }%s\n"
            (if i = List.length campaigns - 1 then "" else ","))
        campaigns;
      Printf.fprintf oc "  ]\n")
