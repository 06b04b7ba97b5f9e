(* Performance ledger: runs one workload against the library's public
   entry points and prints its metrics as one JSON object on the last
   line of stdout. Built and invoked by run.py, which validates the
   metric names and units against BENCHMARK.json:

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --cli PATH [--smoke] [--source DIGEST]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that yields the per-layer metrics and
   writes its spans to _perfbench/trace-W-seedN.json (Chrome trace-event
   JSON). Paths are relative to the source tree's root.
   Exits 1 when any output check failed. *)

let workloads =
  [
    ("faults-recovery", W_faults.run);
    ("certify-clique", W_certify.run);
    ("sim-ring", W_sim.run);
    ("campaign-journal", W_campaign.run);
  ]

(* Domains each workload runs the program at. *)
let domains_of = function "campaign-journal" -> W_campaign.domains | _ -> 1

(* [trace.coverage] must lie in this range: the top-level layer spans
   account for at least 90% of a traced pass. *)
let coverage_tolerance = (0.9, 1.0 +. 1e-9)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1 --cli \
     PATH [--smoke] [--source DIGEST]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and cli = ref "" and smoke = ref false in
  let source = ref "unknown" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | flag :: v :: rest ->
        (match flag with
        | "--workload" -> workload := v
        | "--seed" -> seed := int_of_string_opt v
        | "--seconds" -> seconds := float_of_string_opt v
        | "--trace" ->
            trace :=
              (match v with "0" -> Some false | "1" -> Some true | _ -> None)
        | "--cli" -> cli := v
        | "--source" -> source := v
        | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  let cfg =
    match (!seed, !seconds, !trace) with
    | Some seed, Some seconds, Some trace when seconds > 0.0 && !cli <> "" ->
        {
          Util.workload = !workload;
          seed;
          seconds;
          trace;
          smoke = !smoke;
          cli = !cli;
          out_dir = "_perfbench";
          ref_dir = "perfbench/reference";
        }
    | _ -> usage ()
  in
  if not (Sys.file_exists cfg.out_dir) then Sys.mkdir cfg.out_dir 0o755;
  let provenance =
    [
      ("workload", cfg.workload);
      ("seed", string_of_int cfg.seed);
      ("trace", if cfg.trace then "1" else "0");
      ("smoke", string_of_bool cfg.smoke);
      ("git_rev", Stateless_core.Bench_json.git_rev ());
      ("source_digest", !source);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("domains", string_of_int (domains_of cfg.workload));
      ("seconds", Printf.sprintf "%g" cfg.seconds);
    ]
  in
  let field (k, v) = Trace.json_string k ^ ":" ^ Trace.json_string v in
  Printf.printf "{\"provenance\":{%s}}\n%!"
    (String.concat "," (List.map field provenance));
  let tr = Trace.create ~enabled:cfg.trace ~workload:cfg.workload in
  let led = Util.ledger () in
  let metrics = run cfg tr led in
  let metrics =
    if cfg.trace then begin
      let lo, hi = coverage_tolerance in
      List.iter
        (fun (m : Util.metric) ->
          if m.name = "trace.coverage" then
            Util.check led
              (Printf.sprintf "trace.coverage %.4f within [%g, %g]" m.value lo hi)
              (m.value >= lo && m.value <= hi))
        metrics;
      let path =
        Filename.concat cfg.out_dir
          (Printf.sprintf "trace-%s-seed%d.json" cfg.workload cfg.seed)
      in
      Trace.write_chrome tr ~path ~other:provenance;
      Printf.printf "{\"trace_file\":%s}\n" (Trace.json_string path);
      metrics
    end
    else
      metrics
      @ [
          Util.m "ok_share" "ratio"
            (1.0 -. (float led.failed /. float (max 1 led.attempted)));
        ]
  in
  let correct = led.failed = 0 && led.attempted > 0 in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct led.attempted led.failed
    (String.concat ","
       (List.map
          (fun (m : Util.metric) ->
            let v =
              if Float.is_finite m.value then m.value
              else begin
                Printf.eprintf "perfbench: %s is not finite\n%!" m.name;
                0.0
              end
            in
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Trace.json_string m.name)
              (Printf.sprintf "%.17g" v) (Trace.json_string m.unit_))
          metrics));
  exit (if correct then 0 else 1)
