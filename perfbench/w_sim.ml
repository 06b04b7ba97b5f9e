(* sim-ring: Simlab.run_matrix for Morris contagion (threshold 0.5, seed
   fraction 0.01) on a 10^5-node bidirectional ring, constant latency
   0.2, horizon 20, rate 1, domains 1 — the large stateless-dynamics row,
   where Eventsim's queue and dispatch and the kernel's reaction tiers do
   the work. Trajectory seeds come from the workload seed. CLI twin:
   [sim -n 100000 --horizon 20 --latency const:0.2 --seeds K --seed S].
   Throughput unit: simulated events/s. *)

open Stateless_core
module Simlab = Stateless_simlab.Simlab

let scenario = Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 }
let latency = Eventsim.Const 0.2
let no_faults = { Eventsim.loss = 0.0; dup = 0.0; crash = 0.0; crash_len = 1.0 }

(* The CLI's row format, so the twin's table can be checked line by line. *)
let row (r : Simlab.result) =
  Printf.sprintf "  %6d %10d %11d %10d %7d %6d %7d %10d  %016x" r.seed r.events
    r.activations r.deliveries r.lost r.duplicated r.crash_windows r.metric
    r.label_hash

let run (cfg : Util.config) (tr : Trace.t) led =
  let nodes = if cfg.smoke then 2_000 else 100_000 in
  let horizon = if cfg.smoke then 5.0 else 20.0 in
  let runs = 1 in
  let seed0 = Util.derive_seed ~seed:cfg.seed ~salt:3 in
  let inst, setup_s =
    Util.setup ~reps:7 (fun () ->
        Simlab.build scenario Simlab.Ring ~graph_seed:42 ~nodes ~rate:1.0
          ~latency ~faults:no_faults)
  in
  (* Each trajectory of a traced pass is an "eventsim.run" span under
     the pass's run_matrix span. *)
  let run_s = Trace.acc () and parent = ref (-1, -1) in
  let traced_inst =
    {
      inst with
      Simlab.run_poll =
        (fun ~poll ~seed ~horizon ->
          let parent, pass = !parent in
          Trace.timed run_s (fun () ->
              Trace.with_span tr ~parent ~pass "eventsim.run" (fun _ ->
                  inst.run_poll ~poll ~seed ~horizon)));
    }
  in
  let first = ref None in
  let untraced = ref [] and traced = ref [] and events = ref 0 in
  let words = ref [] and majors = ref [] and run_walls = ref [] in
  let sums = ref (0, 0, 0) in
  let matrix i inst =
    let results, (k : Stateless_campaign.Campaign.counts) =
      Simlab.run_matrix ~domains:1 inst ~seed0 ~runs ~horizon
    in
    Util.check led "sim: every cell ok" (k.ok = runs && k.timeout = 0 && k.error = 0);
    let rs = Array.to_list results |> List.filter_map Fun.id in
    List.iter
      (fun (r : Simlab.result) ->
        Util.check led "sim: events = activations + deliveries, no faults"
          (r.events = r.activations + r.deliveries
          && r.lost = 0 && r.duplicated = 0 && r.crash_windows = 0))
      rs;
    let text = String.concat "\n" (List.map row rs) in
    (match !first with
    | None -> first := Some (text, rs)
    | Some (t, _) ->
        Util.check led
          (Printf.sprintf "sim: pass %d label hashes and counts" i)
          (text = t));
    rs
  in
  let pass i =
    if cfg.trace && i mod 2 = 1 then begin
      Trace.reset run_s;
      let w0 = Util.alloc_words () and g0 = Util.major_collections () in
      let rs, dt =
        Util.time (fun () ->
            Trace.with_span tr ~pass:i "pass" (fun root ->
                Trace.with_span tr ~parent:root ~pass:i "simlab.run_matrix"
                  (fun id ->
                    parent := (id, i);
                    matrix i traced_inst)))
      in
      let ev = List.fold_left (fun a (r : Simlab.result) -> a + r.events) 0 rs in
      words := ((Util.alloc_words () -. w0) /. float ev) :: !words;
      majors := float (Util.major_collections () - g0) :: !majors;
      run_walls := run_s.Trace.busy :: !run_walls;
      sums :=
        List.fold_left
          (fun (e, a, d) (r : Simlab.result) ->
            (e + r.events, a + r.activations, d + r.deliveries))
          (0, 0, 0) rs;
      traced := dt :: !traced
    end
    else begin
      let rs, dt = Util.time (fun () -> matrix i inst) in
      events := List.fold_left (fun a (r : Simlab.result) -> a + r.events) 0 rs;
      untraced := dt :: !untraced
    end
  in
  if not cfg.trace then begin
    let cli_walls = ref [] in
    let cli rep =
      let expected = snd (Option.get !first) in
      cli_walls :=
        Util.cli_twin cfg led ~rep ~tag:"sim"
          [
            [ "sim"; "-n"; string_of_int nodes; "--horizon";
              Printf.sprintf "%g" horizon; "--latency"; "const:0.2"; "--seeds";
              string_of_int runs; "--seed"; string_of_int seed0 ];
          ]
          (fun _ out ->
            List.for_all (fun r -> Util.contains out (row r ^ "\n")) expected)
        :: !cli_walls
    in
    Util.rounds ~seconds:cfg.seconds ~min:3 ~cli pass;
    [
      Util.m "throughput" "items/s" (float !events /. Util.median !untraced);
      Util.m "setup_s" "s" setup_s;
      Util.m "cli_wall_s" "s" (Util.median !cli_walls);
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    ]
  end
  else begin
    Util.rounds ~seconds:cfg.seconds ~min:2 pass;
    (* run_poll slices the horizon and polls between slices; run does not.
       Same seed, so the trajectories must be identical. *)
    let seed = seed0 in
    let r_run, t_run = Util.time (fun () -> inst.run ~seed ~horizon) in
    let r_poll, t_poll =
      Util.time (fun () -> inst.run_poll ~poll:ignore ~seed ~horizon)
    in
    Util.check led "sim: run_poll equals run" (r_run = r_poll);
    let e, a, d = !sums in
    let run_s = Util.median !run_walls in
    [
      Util.m "simlab.build_s" "s" setup_s;
      Util.m "eventsim.run_s" "s" run_s;
      Util.m "eventsim.events" "count" (float e);
      Util.m "eventsim.activations" "count" (float a);
      Util.m "eventsim.deliveries" "count" (float d);
      Util.m "eventsim.ns_per_event" "ns" (run_s *. 1e9 /. float e);
      Util.m "simlab.poll_overhead" "ratio" (t_poll /. t_run);
      Util.m "alloc.words_per_event" "words" (Util.median !words);
      Util.m "gc.major_collections" "count" (Util.median !majors);
      Util.m "gc.top_heap_mb" "MB"
        (float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      Util.m "trace.overhead" "ratio" (Util.median !traced /. Util.median !untraced);
      Util.m "trace.coverage" "ratio" (Trace.coverage tr ~root_name:"pass");
    ]
  end
