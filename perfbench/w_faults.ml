(* faults-recovery: Faultlab.run_matrix over the three default scenarios x
   the default corruption fractions, N seeds per fraction, domains 1,
   batch 1, no journal — the canonical self-stabilization campaign, where
   Fault and the scalar Kernel do almost all of the work. CLI twin:
   [faults -p all --runs N --seed S]. Throughput unit: recovery runs/s. *)

open Stateless_core
module Faultlab = Stateless_faultlab.Faultlab
module D_counter = Stateless_counter.D_counter
module Feedback = Stateless_games.Feedback
module Digraph = Stateless_graph.Digraph

let max_steps = 10_000

(* Short CLI-facing name of each default scenario, in matrix order. *)
let short_names = [ "example1"; "counter"; "oscillator" ]

let digest (cs : Faultlab.campaign list) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (c : Faultlab.campaign) ->
      Printf.bprintf b "%s|%s|%d\n" c.scenario_name c.schedule
        c.runs_per_fraction;
      List.iter
        (fun (s : Faultlab.fraction_stats) ->
          Printf.bprintf b "%h %d %d %h %d %d %d\n" s.fraction s.runs
            s.recovered s.mean s.p50 s.p95 s.worst)
        c.stats)
    cs;
  Util.hex_digest (Buffer.contents b)

(* The tables the CLI prints for [cs], rendered through a file under
   [dir] because print_campaign writes to a channel. *)
let printed ~dir (cs : Faultlab.campaign list) =
  let path = Filename.concat dir "faults-expected.txt" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (Faultlab.print_campaign oc) cs);
  In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Bench-side replica of each scenario closure                         *)
(* ------------------------------------------------------------------ *)

(* The replicas rebuild Faultlab's three measurement closures from public
   Kernel and Fault calls so that each call can be timed on its own; the
   traced run checks that they reproduce run_matrix's rows exactly. *)
type probes = {
  corrupt : Trace.acc;
  settle : Trace.acc;  (** Kernel.settle *)
  until_stable : Trace.acc;  (** Kernel.run_until_stable *)
  step : Trace.acc;  (** Kernel.step_into *)
  mutable steps : int;  (** kernel steps reported or executed *)
  mutable redundant : int;  (** settles of an init already settled in the cell *)
}

let probes () =
  {
    corrupt = Trace.acc ();
    settle = Trace.acc ();
    until_stable = Trace.acc ();
    step = Trace.acc ();
    steps = 0;
    redundant = 0;
  }

let corrupt pr p ~seed ~fraction c =
  Trace.timed pr.corrupt (fun () -> Fault.corrupt p ~seed ~fraction c)

(* [seen] is per measurement context, i.e. per matrix cell. *)
let settle pr seen kern ~init ~schedule =
  if Hashtbl.mem seen init then pr.redundant <- pr.redundant + 1
  else Hashtbl.add seen init ();
  let r =
    Trace.timed pr.settle (fun () ->
        Kernel.settle kern ~init ~schedule ~max_steps)
  in
  Option.iter (fun (s : _ Engine.settled) -> pr.steps <- pr.steps + s.settle_time) r;
  r

let example1_replica pr =
  let n = 4 in
  let p = Clique_example.make n in
  let input = Clique_example.input n in
  let init = Clique_example.oscillation_init p in
  let schedule = Schedule.synchronous n in
  fun () ->
    let kern = Kernel.create p ~input in
    let seen = Hashtbl.create 64 in
    fun ~fraction ~seed ~max_steps:_ ->
      match settle pr seen kern ~init ~schedule with
      | None -> None
      | Some healthy -> (
          let damaged =
            corrupt pr p ~seed ~fraction healthy.Engine.horizon_config
          in
          match settle pr seen kern ~init:damaged ~schedule with
          | Some r -> Some r.Engine.settle_time
          | None -> None)

let d_counter_replica pr =
  let n = 5 and d = 8 in
  let t = D_counter.make ~n ~d () in
  let p = D_counter.protocol t in
  let input = D_counter.input t in
  let schedule = Schedule.synchronous n in
  let steady =
    Engine.run p ~input
      ~init:(Protocol.uniform_config p (p.Protocol.space.Label.decode 0))
      ~schedule ~steps:(D_counter.burn_in t)
  in
  let everyone = List.init n Fun.id in
  let m = Protocol.num_edges p in
  let first_out =
    Array.init n (fun j -> (Digraph.out_edges p.Protocol.graph j).(0))
  in
  fun () ->
    let kern = Kernel.create p ~input in
    let counter_at labels j =
      let _, (_, _, c) = Kernel.decode_label kern labels.(first_out.(j)) in
      c
    in
    let agreed labels =
      let c0 = counter_at labels 0 in
      let rec go j = j >= n || (counter_at labels j = c0 && go (j + 1)) in
      go 1
    in
    let bufs = Array.init 2 (fun _ -> Array.make m 0) in
    let obufs = Array.init 2 (fun _ -> Array.make n 0) in
    fun ~fraction ~seed ~max_steps ->
      let cur = ref bufs.(0) and curo = ref obufs.(0) in
      let nxt = ref bufs.(1) and nxto = ref obufs.(1) in
      Kernel.load kern (corrupt pr p ~seed ~fraction steady) ~labels:!cur
        ~outputs:!curo;
      let run_len = ref 0 and found = ref None and s = ref 0 in
      while !found = None && !s <= max_steps do
        if agreed !cur then begin
          incr run_len;
          if !run_len >= d then found := Some (!s - d + 1)
        end
        else run_len := 0;
        Trace.timed pr.step (fun () ->
            Kernel.step_into kern ~src:!cur ~src_outputs:!curo ~dst:!nxt
              ~dst_outputs:!nxto ~active:everyone);
        pr.steps <- pr.steps + 1;
        let tl = !cur and to_ = !curo in
        cur := !nxt;
        curo := !nxto;
        nxt := tl;
        nxto := to_;
        incr s
      done;
      !found

let oscillator_replica pr =
  let n = 5 in
  let p = Feedback.ring_oscillator n in
  let input = Array.make n () in
  let schedule = Schedule.round_robin n in
  let steady =
    Engine.run p ~input ~init:(Protocol.uniform_config p false) ~schedule
      ~steps:(4 * n)
  in
  fun () ->
    let kern = Kernel.create p ~input in
    fun ~fraction ~seed ~max_steps ->
      let damaged = corrupt pr p ~seed ~fraction steady in
      match
        Trace.timed pr.until_stable (fun () ->
            Kernel.run_until_stable kern ~init:damaged ~schedule ~max_steps)
      with
      | Engine.Oscillating { entered; period } ->
          pr.steps <- pr.steps + entered + period;
          Some entered
      | Engine.Stabilized { rounds; _ } ->
          pr.steps <- pr.steps + rounds;
          Some rounds
      | Engine.Exhausted _ ->
          pr.steps <- pr.steps + max_steps;
          None

let replicas pr (scs : Faultlab.scenario list) =
  List.map2
    (fun (sc : Faultlab.scenario) build ->
      let fresh = build pr in
      { sc with Faultlab.fresh; recover = fresh () })
    scs
    [ example1_replica; d_counter_replica; oscillator_replica ]

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let run (cfg : Util.config) (tr : Trace.t) led =
  let runs = if cfg.smoke then 20 else 4000 in
  let seed0 = Util.derive_seed ~seed:cfg.seed ~salt:1 in
  let items = float (runs * 3 * List.length Faultlab.default_fractions) in
  let scenarios, setup_s =
    Util.setup ~reps:51 (fun () -> Faultlab.default_scenarios ())
  in
  let matrix ?(batch = 1) scs =
    List.map
      (fun sc ->
        let c, (k : Stateless_campaign.Campaign.counts) =
          Faultlab.run_matrix ~seeds:runs ~max_steps ~domains:1 ~seed0 ~batch sc
        in
        Util.check led "faults: every cell ok"
          (k.ok = List.length Faultlab.default_fractions
          && k.timeout = 0 && k.error = 0);
        c)
      scs
  in
  let reference = ref None in
  let checked what cs =
    let d = digest cs in
    match !reference with
    | None -> reference := Some (d, cs)
    | Some (r, _) -> Util.check led ("faults: " ^ what ^ " rows digest") (d = r)
  in
  let recover_accs = List.map (fun _ -> Trace.acc ()) scenarios in
  let traced_scenarios =
    List.map2
      (fun (sc : Faultlab.scenario) a ->
        {
          sc with
          Faultlab.fresh =
            (fun () ->
              let f = sc.fresh () in
              fun ~fraction ~seed ~max_steps ->
                Trace.timed a (fun () -> f ~fraction ~seed ~max_steps));
        })
      scenarios recover_accs
  in
  let untraced = ref [] and traced = ref [] and words = ref [] in
  let recover_s = List.map (fun _ -> ref []) scenarios in
  let plain_pass () =
    let w0 = Util.alloc_words () in
    let cs, dt = Util.time (fun () -> matrix scenarios) in
    words := ((Util.alloc_words () -. w0) /. items) :: !words;
    untraced := dt :: !untraced;
    checked "pass" cs
  in
  let traced_pass i =
    List.iter Trace.reset recover_accs;
    let cs, dt =
      Util.time (fun () ->
          Trace.with_span tr ~pass:i "pass" (fun root ->
              List.map2
                (fun (sc : Faultlab.scenario) name ->
                  Trace.with_span tr ~parent:root ~pass:i
                    ~args:[ ("scenario", sc.name) ]
                    ("faultlab.run_matrix." ^ name)
                    (fun _ -> List.hd (matrix [ sc ])))
                traced_scenarios short_names))
    in
    traced := dt :: !traced;
    List.iter2 (fun r a -> r := a.Trace.busy :: !r) recover_s recover_accs;
    checked "traced pass" cs
  in
  let batch_walls = ref [] in
  let batch_pass () =
    let cs, dt = Util.time (fun () -> matrix ~batch:256 scenarios) in
    batch_walls := dt :: !batch_walls;
    checked "batch 256" cs
  in
  (* The CLI must print exactly the tables the library returned. *)
  let cli_walls = ref [] in
  let ref_text = lazy (printed ~dir:cfg.out_dir (snd (Option.get !reference))) in
  let cli rep =
    let ref_text = Lazy.force ref_text in
    cli_walls :=
      Util.cli_twin cfg led ~rep ~tag:"faults"
        [
          [ "faults"; "-p"; "all"; "--runs"; string_of_int runs; "--seed";
            string_of_int seed0 ];
        ]
        (fun _ out -> out = ref_text)
      :: !cli_walls
  in
  if not cfg.trace then begin
    Util.rounds ~seconds:cfg.seconds ~min:3 ~cli (fun _ -> plain_pass ());
    [
      Util.m "throughput" "items/s" (items /. Util.median !untraced);
      Util.m "setup_s" "s" setup_s;
      Util.m "cli_wall_s" "s" (Util.median !cli_walls);
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    ]
  end
  else begin
    (* Batch: lock-step blocks of 256 against the per-instance path. *)
    Util.rounds ~seconds:cfg.seconds ~min:3 (fun i ->
        match i mod 3 with
        | 0 -> plain_pass ()
        | 1 -> traced_pass i
        | _ -> batch_pass ());
    (* Sub-call split from the replica; its rows must equal run_matrix's. *)
    let pr = probes () in
    let rep_cs =
      Trace.with_span tr ~pass:(-1) "replica" (fun _ ->
          matrix (replicas pr scenarios))
    in
    checked "replica" rep_cs;
    let settles = pr.settle.calls in
    let kernel_s = pr.settle.busy +. pr.until_stable.busy +. pr.step.busy in
    List.map2
      (fun name r ->
        Util.m (Printf.sprintf "faultlab.%s.recover_s" name) "s" (Util.median !r))
      short_names recover_s
    @ [
        Util.m "fault.corrupt_s" "s" pr.corrupt.busy;
        Util.m "fault.corrupt_calls" "count" (float pr.corrupt.calls);
        Util.m "kernel.settle_s" "s" pr.settle.busy;
        Util.m "kernel.settle_calls" "count" (float settles);
        Util.m "kernel.steps" "count" (float pr.steps);
        Util.m "kernel.ns_per_step" "ns"
          (if pr.steps > 0 then kernel_s *. 1e9 /. float pr.steps else 0.0);
        Util.m "kernel.redundant_settle_share" "ratio"
          (if settles > 0 then float pr.redundant /. float settles else 0.0);
        Util.m "alloc.words_per_run" "words" (Util.median !words);
        Util.m "batch.wall_ratio" "ratio"
          (Util.median !batch_walls /. Util.median !untraced);
        Util.m "trace.overhead" "ratio"
          (Util.median !traced /. Util.median !untraced);
        Util.m "trace.coverage" "ratio" (Trace.coverage tr ~root_name:"pass");
      ]
  end
