(* Command-line front end for the stateless-computation library.

   Subcommands:
     simulate  — run a built-in protocol under a chosen schedule
     check     — exhaustively decide label r-stabilization (Theorem 3.1 lab)
     snake     — search for snakes-in-the-box (Theorem 4.1's combinatorics)
     compile   — compile a circuit family member onto a ring (Theorem 5.4)
     counter   — run the stateless D-counter (Claim 5.6)
     spp       — run a Stable Paths Problem gadget (BGP motivation)
     faults    — corrupt steady states and measure recovery (Section 2.2)
     netlab    — adversarial channel campaigns and bounded-adversary
                 certification
     byz       — Byzantine-node attack campaigns and exhaustive (r,B)
                 certification
     sim       — event-driven continuous-time simulation on generated
                 topologies at up to millions of nodes
     campaign  — run the labs' sweeps as one crash-tolerant experiment
                 matrix with a resumable JSON-lines journal
     chaos     — storm the campaign machinery with seeded fault injection
                 and prove resume identity per lab
     fuzz      — cross-engine differential fuzzing with automatic
                 counterexample shrinking

   The campaign-capable subcommands (faults, netlab, byz, sim, campaign)
   share the robustness flags --journal / --resume / --cell-deadline /
   --retries. Exit codes: 0 success, 1 invariant violation (a fuzz
   divergence, a non-identical chaos resume, or a missed planted
   mutant), 2 journal locked by another campaign, 3 campaign completed
   but degraded (some cell retired as 'error'), 124 usage error, 125
   miscalibrated instance. *)

open Cmdliner
open Stateless_core
module Checker = Stateless_checker.Checker
module Symmetry = Stateless_checker.Symmetry
module Circuit = Stateless_circuit.Circuit
module Compile = Stateless_compile.Compile
module D_counter = Stateless_counter.D_counter
module Two_counter = Stateless_counter.Two_counter
module Snake = Stateless_snake.Snake
module Spp = Stateless_games.Spp
module Faultlab = Stateless_faultlab.Faultlab
module Netlab = Stateless_netlab.Netlab
module Netcheck = Stateless_netlab.Netcheck
module Byzlab = Stateless_byzlab.Byzlab
module Byzcheck = Stateless_byzlab.Byzcheck
module Simlab = Stateless_simlab.Simlab
module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value
module Chaoslab = Stateless_chaoslab.Chaoslab
module Fuzz = Stateless_chaoslab.Fuzz
module Fooling = Stateless_lowerbound.Fooling

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some k when k > 0 -> Ok k
    | Some k -> Error (`Msg (Printf.sprintf "%d is not a positive integer" k))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let nodes_arg =
  let doc = "Number of nodes." in
  Arg.(value & opt int 4 & info [ "n"; "nodes" ] ~doc)

let steps_arg =
  let doc = "Maximum number of steps to simulate." in
  Arg.(value & opt int 10_000 & info [ "steps" ] ~doc)

(* Schedule specs are parsed at the Cmdliner layer so that a malformed
   '--schedule' is a usage error with a proper exit code, not an uncaught
   [Failure] backtrace. The grammar: sync | round-robin | random:R | chase
   with R a positive integer. *)
type sched_spec = Sync | Round_robin | Random_fair of int | Chase

let sched_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "sync" ] -> Ok Sync
    | [ "round-robin" ] -> Ok Round_robin
    | [ "random"; r ] -> (
        match int_of_string_opt r with
        | Some r when r >= 1 -> Ok (Random_fair r)
        | Some r ->
            Error
              (`Msg
                (Printf.sprintf
                   "fairness bound R must be at least 1 (got random:%d)" r))
        | None ->
            Error
              (`Msg
                (Printf.sprintf
                   "invalid fairness bound %S in %S: expected 'random:R' \
                    with R a positive integer"
                   r s)))
    | [ "chase" ] -> Ok Chase
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown schedule %S: expected 'sync', 'round-robin', \
                'random:R' or 'chase'"
               s))
  in
  let print ppf = function
    | Sync -> Format.pp_print_string ppf "sync"
    | Round_robin -> Format.pp_print_string ppf "round-robin"
    | Random_fair r -> Format.fprintf ppf "random:%d" r
    | Chase -> Format.pp_print_string ppf "chase"
  in
  Arg.conv ~docv:"SCHEDULE" (parse, print)

let schedule_arg =
  let doc =
    "Schedule: 'sync', 'round-robin', 'random:R' (random R-fair, R a \
     positive integer), or 'chase' (Example 1's (n-1)-fair adversary)."
  in
  Arg.(value & opt sched_conv Sync & info [ "s"; "schedule" ] ~doc)

let schedule_of_spec spec n =
  match spec with
  | Sync -> Schedule.synchronous n
  | Round_robin -> Schedule.round_robin n
  | Random_fair r -> Schedule.random_fair ~seed:7 ~r n
  | Chase -> Clique_example.oscillation_schedule n

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let report_outcome = function
  | Engine.Stabilized { rounds; _ } ->
      Printf.printf "stabilized after %d steps\n" rounds
  | Engine.Oscillating { entered; period } ->
      Printf.printf "oscillates: enters a %d-step cycle at step %d\n" period
        entered
  | Engine.Exhausted _ -> print_endline "no verdict within the step budget"

let simulate_cmd =
  let protocol_arg =
    let doc =
      "Protocol: 'example1' (the clique protocol of Example 1), \
       'oscillator' (odd inverter ring), 'latch' (NOR latch, R=S=0)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("example1", `Example1); ("oscillator", `Oscillator);
               ("latch", `Latch);
             ])
          `Example1
      & info [ "p"; "protocol" ] ~doc)
  in
  let run protocol n spec steps =
    let n = max 2 n in
    match protocol with
    | `Example1 ->
        let p = Clique_example.make (max 3 n) in
        let n = max 3 n in
        let init = Clique_example.oscillation_init p in
        report_outcome
          (Engine.run_until_stable p ~input:(Clique_example.input n) ~init
             ~schedule:(schedule_of_spec spec n) ~max_steps:steps)
    | `Oscillator ->
        let p = Stateless_games.Feedback.ring_oscillator n in
        let init = Protocol.uniform_config p false in
        report_outcome
          (Engine.run_until_stable p ~input:(Array.make n ()) ~init
             ~schedule:(schedule_of_spec spec n) ~max_steps:steps)
    | `Latch ->
        let p = Stateless_games.Feedback.nor_latch () in
        let init = Protocol.uniform_config p false in
        report_outcome
          (Engine.run_until_stable p ~input:[| false; false |] ~init
             ~schedule:(schedule_of_spec spec 2) ~max_steps:steps)
  in
  let info =
    Cmd.info "simulate" ~doc:"Run a built-in protocol under a schedule"
  in
  Cmd.v info Term.(const run $ protocol_arg $ nodes_arg $ schedule_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let r_arg =
    let doc = "Fairness parameter r." in
    Arg.(value & opt pos_int_conv 2 & info [ "r" ] ~doc)
  in
  let budget_arg =
    let doc = "Maximum number of states to explore." in
    Arg.(value & opt int 5_000_000 & info [ "budget" ] ~doc)
  in
  let sym_arg =
    let doc =
      "Explore the quotient of the states-graph by the S_n node symmetry of \
       the clique (one representative per orbit) instead of the full graph. \
       Same verdict, up to n! fewer states."
    in
    Arg.(value & flag & info [ "sym" ] ~doc)
  in
  let run n r budget sym =
    let n = max 3 n in
    let p = Clique_example.make n in
    let input = Clique_example.input n in
    let symmetry =
      if sym then Some (Symmetry.clique p.Protocol.graph) else None
    in
    Printf.printf
      "Example 1 on K_%d (stable labelings: %d). Checking label \
       %d-stabilization%s...\n"
      n
      (Stability.count_stable_labelings p ~input)
      r
      (if sym then " modulo S_n" else "");
    (match Checker.check_label ?symmetry p ~input ~r ~max_states:budget with
    | Checker.Stabilizing ->
        print_endline "STABILIZING (all initial labelings, all r-fair \
                       schedules)"
    | Checker.Oscillating w ->
        Printf.printf
          "NOT STABILIZING: from labeling #%d play %d steps, then repeat a \
           %d-step cycle forever (replay check: %b)\n"
          w.Checker.init_code
          (List.length w.Checker.prefix)
          (List.length w.Checker.cycle)
          (Checker.replay p ~input w)
    | Checker.Too_large { needed } ->
        Printf.printf "state space too large: %d states (budget %d)\n" needed
          budget);
    match Checker.last_stats () with
    | Some s when sym ->
        Printf.printf "  [explored %d orbit representatives of %d states]\n"
          s.Checker.states s.Checker.full_states
    | _ -> ()
  in
  let info =
    Cmd.info "check"
      ~doc:"Exhaustively decide label r-stabilization of Example 1"
  in
  Cmd.v info Term.(const run $ nodes_arg $ r_arg $ budget_arg $ sym_arg)

(* ------------------------------------------------------------------ *)
(* snake                                                               *)
(* ------------------------------------------------------------------ *)

let snake_cmd =
  let d_arg =
    let doc = "Hypercube dimension." in
    Arg.(value & opt int 4 & info [ "d" ] ~doc)
  in
  let budget_arg =
    let doc = "Search-node budget." in
    Arg.(value & opt int 2_000_000 & info [ "budget" ] ~doc)
  in
  let run d budget =
    let snake, complete = Snake.search d ~node_budget:budget in
    Printf.printf "Q_%d: found an induced cycle of length %d (%s search)\n" d
      (List.length snake)
      (if complete then "exhaustive" else "budgeted");
    Printf.printf "  cycle: %s\n"
      (String.concat " " (List.map string_of_int snake));
    Printf.printf "  verified induced: %b\n" (Snake.is_induced_cycle d snake);
    if d <= 7 then
      Printf.printf "  best known s(%d) = %d\n" d (Snake.best_known d)
  in
  let info = Cmd.info "snake" ~doc:"Search for a snake-in-the-box" in
  Cmd.v info Term.(const run $ d_arg $ budget_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let family_arg =
    let doc = "Circuit family: parity | majority | equality | and | or." in
    Arg.(
      value
      & opt
          (enum
             [
               ("parity", "parity"); ("majority", "majority");
               ("equality", "equality"); ("and", "and"); ("or", "or");
             ])
          "majority"
      & info [ "f"; "family" ] ~doc)
  in
  let input_arg =
    let doc = "Input bits, e.g. 101." in
    Arg.(value & opt string "101" & info [ "x"; "input" ] ~doc)
  in
  let run family input_str =
    let x =
      Array.of_seq
        (Seq.map (fun c -> c = '1') (String.to_seq input_str))
    in
    let n = Array.length x in
    let circuit =
      match family with
      | "parity" -> Circuit.parity n
      | "majority" -> Circuit.majority n
      | "equality" -> Circuit.equality n
      | "and" -> Circuit.and_all n
      | "or" -> Circuit.or_all n
      | _ -> assert false (* Arg.enum admits only the five above *)
    in
    let t = Compile.make circuit in
    Printf.printf
      "%s_%d: %d gates -> ring of %d nodes, clock D = %d, %d-bit labels\n"
      family n (Circuit.size circuit) t.Compile.ring_size t.Compile.clock_period
      (Compile.label_bits t);
    match Compile.run_from t x ~seed:1 with
    | Some v ->
        Printf.printf "ring output: %b (circuit: %b)\n" v (Circuit.eval circuit x)
    | None -> print_endline "did not converge (bug!)"
  in
  let info =
    Cmd.info "compile" ~doc:"Compile a circuit to a bidirectional ring"
  in
  Cmd.v info Term.(const run $ family_arg $ input_arg)

(* ------------------------------------------------------------------ *)
(* counter                                                             *)
(* ------------------------------------------------------------------ *)

let counter_cmd =
  let d_arg =
    let doc = "Counter modulus D." in
    Arg.(value & opt int 8 & info [ "d" ] ~doc)
  in
  let run n d =
    let n = if n mod 2 = 0 then n + 1 else n in
    let n = max 3 n in
    let t = D_counter.make ~n ~d () in
    let p = D_counter.protocol t in
    let input = D_counter.input t in
    let config =
      ref
        (Engine.run p ~input
           ~init:(Protocol.uniform_config p (p.Protocol.space.Label.decode 0))
           ~schedule:(Schedule.synchronous n)
           ~steps:(D_counter.burn_in t))
    in
    Printf.printf "D-counter, %d-ring mod %d (%d label bits), after burn-in:\n"
      n d (D_counter.label_bits t);
    for _ = 1 to 8 do
      config := Engine.step p ~input !config ~active:(List.init n Fun.id);
      let vs = D_counter.values t !config in
      Printf.printf "  %s  agreed=%b\n"
        (String.concat " " (Array.to_list (Array.map string_of_int vs)))
        (D_counter.agreed t !config)
    done
  in
  let info = Cmd.info "counter" ~doc:"Run the stateless D-counter" in
  Cmd.v info Term.(const run $ nodes_arg $ d_arg)

(* ------------------------------------------------------------------ *)
(* spp                                                                 *)
(* ------------------------------------------------------------------ *)

let spp_cmd =
  let gadget_arg =
    let doc = "Gadget: good | disagree | bad." in
    Arg.(
      value
      & opt (enum [ ("good", `Good); ("disagree", `Disagree); ("bad", `Bad) ])
          `Bad
      & info [ "g"; "gadget" ] ~doc)
  in
  let run gadget spec steps =
    let gadget_name, spp =
      match gadget with
      | `Good -> ("good", Spp.good_gadget ())
      | `Disagree -> ("disagree", Spp.disagree ())
      | `Bad -> ("bad", Spp.bad_gadget ())
    in
    let p = Spp.protocol spp in
    Printf.printf "%s gadget: %d SPP solutions\n" gadget_name
      (List.length (Spp.solutions spp));
    report_outcome
      (Engine.run_until_stable p ~input:(Spp.input spp)
         ~init:(Protocol.uniform_config p [])
         ~schedule:(schedule_of_spec spec spp.Spp.n)
         ~max_steps:steps)
  in
  let info = Cmd.info "spp" ~doc:"Run a Stable Paths Problem gadget" in
  Cmd.v info Term.(const run $ gadget_arg $ schedule_arg $ steps_arg)

(* ------------------------------------------------------------------ *)
(* hunt                                                                *)
(* ------------------------------------------------------------------ *)

let hunt_cmd =
  let gadget_arg =
    let doc = "Target: disagree | bad | example1 | congestion." in
    Arg.(
      value
      & opt
          (enum
             [
               ("disagree", `Disagree); ("bad", `Bad);
               ("example1", `Example1); ("congestion", `Congestion);
             ])
          `Bad
      & info [ "t"; "target" ] ~doc)
  in
  let r_arg =
    let doc = "Fairness parameter r of the sampled schedules." in
    Arg.(value & opt int 3 & info [ "r" ] ~doc)
  in
  let attempts_arg =
    let doc = "Number of (labeling, schedule) samples." in
    Arg.(value & opt int 200 & info [ "attempts" ] ~doc)
  in
  let run target r attempts n =
    let report (type l) (p : (unit, l) Protocol.t) nn =
      let input = Array.make nn () in
      match
        Adversary.find_oscillation p ~input ~r ~attempts ~period:(3 * r)
          ~seed:11 ~max_steps:4000
      with
      | Some w ->
          Printf.printf
            "found a diverging %d-fair run: enters a %d-step cycle at step %d under schedule '%s' (verified: %b)\n"
            r w.Adversary.period w.Adversary.entered
            w.Adversary.schedule.Schedule.name
            (Adversary.verify p ~input w)
      | None ->
          Printf.printf
            "no oscillation found in %d samples (absence of evidence only)\n"
            attempts
    in
    match target with
    | `Disagree ->
        let spp = Spp.disagree () in
        report (Spp.protocol spp) spp.Spp.n
    | `Bad ->
        let spp = Spp.bad_gadget () in
        report (Spp.protocol spp) spp.Spp.n
    | `Example1 ->
        let n = max 3 n in
        report (Clique_example.make n) n
    | `Congestion ->
        let game =
          Stateless_games.Congestion.make ~flows:2 ~capacity:4 ~max_rate:4
        in
        report
          (Stateless_games.Best_response.protocol game ())
          2
  in
  let info =
    Cmd.info "hunt"
      ~doc:
        "Sample random r-fair periodic schedules hunting for a replayable          oscillation (for systems too large to check exhaustively)"
  in
  Cmd.v info Term.(const run $ gadget_arg $ r_arg $ attempts_arg $ nodes_arg)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

(* Rates and counts are validated at the Cmdliner layer so malformed flags
   are usage errors, not backtraces. *)
let fraction_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | Some f ->
        Error (`Msg (Printf.sprintf "corruption fraction %g not in [0, 1]" f))
    | None -> Error (`Msg (Printf.sprintf "invalid fraction %S" s))
  in
  Arg.conv ~docv:"FRACTION" (parse, Format.pp_print_float)

let nonneg_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 0 -> Ok k
    | Some k -> Error (`Msg (Printf.sprintf "%d is negative" k))
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Arguments shared verbatim by the faults/netlab/byz campaign commands;
   defined once so names, defaults and docs cannot drift apart. *)

let seed_arg =
  let doc =
    "First per-run seed: run $(i,i) of a sweep uses seed $(docv) + $(i,i). \
     Distinct values give statistically independent campaigns."
  in
  Arg.(value & opt pos_int_conv 1 & info [ "seed" ] ~doc ~docv:"S")

let domains_arg =
  let doc =
    "Spread runs across $(docv) domains. Results are bit-identical for \
     every value; only wall time changes."
  in
  Arg.(value & opt pos_int_conv 1 & info [ "domains" ] ~doc ~docv:"D")

let out_arg =
  let doc = "Also write the campaign as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")

(* Same flag everywhere; only the phase being abandoned differs. *)
let max_steps_arg ~doc =
  Arg.(
    value
    & opt pos_int_conv 10_000
    & info [ "max-steps"; "steps" ] ~doc ~docv:"K")

let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "%g is not positive" f))
    | None -> Error (`Msg (Printf.sprintf "invalid float %S" s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

(* Robustness-policy flags shared by the campaign-capable subcommands
   (faults, netlab, byz, sim, campaign). *)
let policy_term =
  let journal_arg =
    let doc =
      "Stream each completed matrix cell to $(docv) as one JSON-lines \
       record (appended, flushed and fsync'd before the next cell), so a \
       killed campaign can be resumed with $(b,--resume)."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~doc ~docv:"FILE")
  in
  let resume_arg =
    let doc =
      "Replay the journal before running: completed cells whose config \
       fingerprint still matches are restored without re-execution, and \
       the merged output is byte-identical to an uninterrupted run. \
       Without this flag an existing journal is truncated."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Wall-clock budget per matrix cell, in seconds, polled \
       cooperatively inside the cell's own loop (no signals). An \
       over-budget cell is retired with a 'timeout' record and the \
       campaign still completes."
    in
    Arg.(
      value
      & opt (some pos_float_conv) None
      & info [ "cell-deadline" ] ~doc ~docv:"SEC")
  in
  let retries_arg =
    let doc =
      "Re-execute a crashed cell up to $(docv) extra times (reseeded per \
       attempt) before retiring it with a structured 'error' record."
    in
    Arg.(value & opt nonneg_int_conv 0 & info [ "retries" ] ~doc ~docv:"N")
  in
  let make journal resume cell_deadline retries =
    { Campaign.journal; resume; cell_deadline; retries }
  in
  Term.(const make $ journal_arg $ resume_arg $ deadline_arg $ retries_arg)

(* Sequential [run_matrix] legs sharing one journal: the first leg honors
   the user's resume choice (truncating any stale journal when --resume
   is absent); later legs must append to the same file, so they always
   resume. Cell keys are prefixed per lab and scenario, so a fresh leg
   never replays another leg's records. *)
let leg_policy (policy : Campaign.policy) first =
  if !first then (
    first := false;
    policy)
  else { policy with Campaign.resume = true }

let zero_counts = { Campaign.ok = 0; timeout = 0; error = 0; replayed = 0 }

let add_counts (a : Campaign.counts) (b : Campaign.counts) =
  {
    Campaign.ok = a.Campaign.ok + b.Campaign.ok;
    timeout = a.Campaign.timeout + b.Campaign.timeout;
    error = a.Campaign.error + b.Campaign.error;
    replayed = a.Campaign.replayed + b.Campaign.replayed;
  }

let cell_triple (c : Campaign.counts) =
  (c.Campaign.ok, c.Campaign.timeout, c.Campaign.error)

(* Silent on an all-ok fresh run, so default output is unchanged. *)
let report_counts (c : Campaign.counts) =
  if c.Campaign.timeout > 0 || c.Campaign.error > 0 || c.Campaign.replayed > 0
  then
    Printf.printf "  [cells: %d ok (%d replayed), %d timeout, %d error]\n"
      c.Campaign.ok c.Campaign.replayed c.Campaign.timeout c.Campaign.error

(* A campaign that completes but retires cells as 'error' (crashes that
   exhausted their retries) exits with a distinct code so scripts and CI
   can tell "degraded" (3) from success (0) without parsing stdout.
   Timeouts are a budget choice, not degradation, and keep exit 0. *)
let exit_degraded = 3

let degraded_exit (c : Campaign.counts) =
  if c.Campaign.error > 0 then exit exit_degraded

let faults_cmd =
  let scenario_arg =
    let doc =
      "Scenario: 'example1' (output re-stabilization on the clique), \
       'counter' (D-counter re-locking), 'oscillator' (ring oscillator \
       re-entering its orbit), or 'all'."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("all", `All); ("example1", `Example1);
               ("counter", `Counter); ("oscillator", `Oscillator);
             ])
          `All
      & info [ "p"; "scenario" ] ~doc)
  in
  let fractions_arg =
    let doc =
      "Comma-separated corruption fractions, each in [0, 1]."
    in
    Arg.(
      value
      & opt (list fraction_conv) Faultlab.default_fractions
      & info [ "fractions" ] ~doc ~docv:"F1,F2,...")
  in
  let runs_arg =
    let doc = "Independent corruption runs (seeds) per fraction." in
    Arg.(value & opt pos_int_conv 20 & info [ "runs"; "seeds" ] ~doc ~docv:"N")
  in
  let max_steps_arg =
    max_steps_arg ~doc:"Give up on a run after $(docv) recovery steps."
  in
  let run scenario fractions runs max_steps domains seed0 policy out =
    let scenarios =
      match scenario with
      | `All -> Faultlab.default_scenarios ()
      | `Example1 -> [ Faultlab.example1 () ]
      | `Counter -> [ Faultlab.d_counter () ]
      | `Oscillator -> [ Faultlab.ring_oscillator () ]
    in
    let first = ref true in
    let counts = ref zero_counts in
    let campaigns =
      List.map
        (fun sc ->
          let c, k =
            Faultlab.run_matrix ~fractions ~seeds:runs ~max_steps ~domains
              ~seed0 ~policy:(leg_policy policy first) sc
          in
          counts := add_counts !counts k;
          c)
        scenarios
    in
    List.iter (Faultlab.print_campaign stdout) campaigns;
    report_counts !counts;
    (match out with
    | None -> ()
    | Some path ->
        Bench_json.to_file path (fun oc ->
            Faultlab.write_json
              ~host:(Bench_json.host ~domains ())
              ~cells:(cell_triple !counts) oc campaigns);
        Printf.printf "  [wrote %s]\n" path);
    degraded_exit !counts
  in
  let info =
    Cmd.info "faults"
      ~doc:
        "Corrupt steady states and measure recovery: mean/percentile/worst \
         recovery steps per corruption fraction"
  in
  Cmd.v info
    Term.(
      const run $ scenario_arg $ fractions_arg $ runs_arg $ max_steps_arg
      $ domains_arg $ seed_arg $ policy_term $ out_arg)

(* ------------------------------------------------------------------ *)
(* netlab                                                              *)
(* ------------------------------------------------------------------ *)

let netlab_cmd =
  let scenario_arg =
    let doc =
      "Scenario: 'example1' (output degradation on the clique), 'counter' \
       (D-counter losing lock), or 'all'."
    in
    Arg.(
      value
      & opt
          (enum [ ("all", `All); ("example1", `Example1); ("counter", `Counter) ])
          `All
      & info [ "p"; "scenario" ] ~doc)
  in
  let rate name key =
    let doc = Printf.sprintf "Per-write/per-step %s probability in [0, 1]." name in
    Arg.(value & opt (some fraction_conv) None & info [ key ] ~doc ~docv:"F")
  in
  let loss_arg = rate "loss" "loss" in
  let delay_arg = rate "delay" "delay" in
  let dup_arg = rate "duplication (stale reread)" "dup" in
  let crash_arg = rate "crash" "crash" in
  let max_delay_arg =
    let doc = "Delayed writes land within $(docv) steps." in
    Arg.(value & opt pos_int_conv 4 & info [ "max-delay" ] ~doc ~docv:"D")
  in
  let crash_len_arg =
    let doc = "A crashed node stays silent for $(docv) steps." in
    Arg.(value & opt pos_int_conv 2 & info [ "crash-len" ] ~doc ~docv:"L")
  in
  let budget_arg =
    let doc = "Adversary fault budget per window (0 disables all faults)." in
    Arg.(value & opt nonneg_int_conv 4 & info [ "k"; "budget" ] ~doc ~docv:"K")
  in
  let window_arg =
    let doc = "Budget recharge window, in steps." in
    Arg.(value & opt pos_int_conv 8 & info [ "window" ] ~doc ~docv:"W")
  in
  let runs_arg =
    let doc = "Independent storms (seeds) per fault level." in
    Arg.(value & opt pos_int_conv 20 & info [ "runs"; "seeds" ] ~doc ~docv:"N")
  in
  let storm_arg =
    let doc = "Length of the fault storm, in steps." in
    Arg.(value & opt pos_int_conv 400 & info [ "storm" ] ~doc ~docv:"S")
  in
  let max_steps_arg =
    max_steps_arg ~doc:"Give up on post-storm recovery after $(docv) steps."
  in
  let run scenario loss delay dup crash max_delay crash_len k window runs storm
      max_steps domains seed0 policy out =
    let budget = { Netlab.k; window } in
    (* Any explicit rate flag selects a single custom level; otherwise run
       the default rising loss/delay sweep. *)
    let levels =
      match (loss, delay, dup, crash) with
      | None, None, None, None -> Netlab.default_levels
      | _ ->
          let get = Option.value ~default:0.0 in
          [
            Netlab.rates ~loss:(get loss) ~delay:(get delay) ~max_delay
              ~dup:(get dup) ~crash:(get crash) ~crash_len ();
          ]
    in
    let scenarios =
      match scenario with
      | `All -> Netlab.default_scenarios ()
      | `Example1 -> [ Netlab.example1 () ]
      | `Counter -> [ Netlab.d_counter () ]
    in
    let first = ref true in
    let counts = ref zero_counts in
    let campaigns =
      List.map
        (fun sc ->
          let c, cnt =
            Netlab.run_matrix ~levels ~seeds:runs ~storm ~max_steps ~domains
              ~seed0 ~policy:(leg_policy policy first) ~budget sc
          in
          counts := add_counts !counts cnt;
          c)
        scenarios
    in
    List.iter (Netlab.print_campaign stdout) campaigns;
    report_counts !counts;
    (match out with
    | None -> ()
    | Some path ->
        Bench_json.to_file path (fun oc ->
            Netlab.write_json
              ~host:(Bench_json.host ~domains ())
              ~cells:(cell_triple !counts) oc campaigns);
        Printf.printf "  [wrote %s]\n" path);
    degraded_exit !counts
  in
  let info =
    Cmd.info "netlab"
      ~doc:
        "Run protocols over adversarial channels (loss, delay, duplication, \
         crash-recover nodes) and measure output degradation and recovery"
  in
  Cmd.v info
    Term.(
      const run $ scenario_arg $ loss_arg $ delay_arg $ dup_arg $ crash_arg
      $ max_delay_arg $ crash_len_arg $ budget_arg $ window_arg $ runs_arg
      $ storm_arg $ max_steps_arg $ domains_arg $ seed_arg $ policy_term
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* byz                                                                 *)
(* ------------------------------------------------------------------ *)

let byz_cmd =
  let scenario_arg =
    let doc =
      "Scenario: 'example1' (output deviation on the clique), 'ring' (relay \
       ring, a containment worst case), 'counter' (D-counter losing lock), \
       or 'all'."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("all", `All); ("example1", `Example1); ("ring", `Ring);
               ("counter", `Counter);
             ])
          `All
      & info [ "p"; "scenario" ] ~doc)
  in
  let byz_nodes_arg =
    let doc =
      "Comma-separated Byzantine node ids. Default: sweep the scenario's \
       built-in placements (campaign mode) or node 0 (--certify)."
    in
    Arg.(
      value
      & opt (some (list nonneg_int_conv)) None
      & info [ "byz-nodes" ] ~doc ~docv:"I,J,...")
  in
  let strategy_arg =
    let doc =
      "Attack strategy: 'random' (uniform labels from the seeded RNG) or \
       'anti-majority' (always write the rarest visible label)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("random", Byzlab.Seeded_random);
               ("anti-majority", Byzlab.Anti_majority);
             ])
          Byzlab.Seeded_random
      & info [ "strategy" ] ~doc)
  in
  let runs_arg =
    let doc = "Independent attacks (seeds) per Byzantine placement." in
    Arg.(value & opt pos_int_conv 20 & info [ "runs"; "seeds" ] ~doc ~docv:"N")
  in
  let attack_arg =
    let doc = "Length of the attack phase, in steps." in
    Arg.(value & opt pos_int_conv 400 & info [ "attack" ] ~doc ~docv:"A")
  in
  let max_steps_arg =
    max_steps_arg ~doc:"Give up on post-attack recovery after $(docv) steps."
  in
  let certify_arg =
    let doc =
      "Exhaustively certify (r,B)-stabilization instead of measuring runs: \
       decide whether every correct node stabilizes under every r-fair \
       schedule and every Byzantine behavior of the given nodes, and print \
       the per-node containment radius ('example1' only; use -n 3 for the \
       smallest instance)."
    in
    Arg.(value & flag & info [ "certify" ] ~doc)
  in
  let r_arg =
    let doc = "Fairness parameter r (--certify)." in
    Arg.(value & opt pos_int_conv 2 & info [ "r" ] ~doc)
  in
  let budget_arg =
    let doc = "Maximum number of states to explore (--certify)." in
    Arg.(value & opt pos_int_conv 5_000_000 & info [ "budget" ] ~doc)
  in
  let certify n byz r budget =
    let n = max 3 n in
    let p = Clique_example.make n in
    let input = Clique_example.input n in
    let byz = Option.value ~default:[ 0 ] byz in
    List.iter
      (fun j ->
        if j >= n then (
          Printf.eprintf "stateless: Byzantine node %d out of range for K_%d\n"
            j n;
          exit 124))
      byz;
    Printf.printf
      "Example 1 on K_%d, Byzantine nodes {%s}. Certifying correct-node \
       output %d-stabilization...\n"
      n
      (String.concat "," (List.map string_of_int byz))
      r;
    (match Byzcheck.check_output p ~input ~byz ~r ~max_states:budget with
    | Byzcheck.Stabilizing ->
        print_endline
          "STABILIZING (all initial labelings, all r-fair schedules, all \
           Byzantine behaviors)"
    | Byzcheck.Oscillating w ->
        Printf.printf
          "NOT STABILIZING: from labeling #%d play %d steps, then repeat a \
           %d-step cycle forever (replay: boxed %b, packed %b)\n"
          w.Byzcheck.init_code
          (List.length w.Byzcheck.prefix)
          (List.length w.Byzcheck.cycle)
          (Byzcheck.replay p ~input ~byz w)
          (Byzcheck.replay_packed p ~input ~byz w)
    | Byzcheck.Too_large { needed } ->
        Printf.printf "state space too large: %d states (budget %d)\n" needed
          budget);
    match Byzcheck.containment p ~input ~byz ~r ~max_states:budget with
    | Error needed ->
        Printf.printf "containment skipped: %d states (budget %d)\n" needed
          budget
    | Ok c ->
        Printf.printf
          "containment: %.0f%% of correct nodes stabilize; radius %s\n"
          (100.0 *. c.Byzcheck.stabilized_fraction)
          (match c.Byzcheck.radius with
          | None -> "none (fully contained)"
          | Some d -> string_of_int d);
        List.iter
          (fun f ->
            Printf.printf "  node %d (distance %d from B): %s\n"
              f.Byzcheck.node f.Byzcheck.distance
              (if f.Byzcheck.stabilizes then "stabilizes" else "diverges"))
          c.Byzcheck.fates
  in
  let campaign scenario byz strategy runs attack max_steps domains seed0 policy
      out =
    let scenarios =
      match scenario with
      | `All -> Byzlab.default_scenarios ()
      | `Example1 -> [ Byzlab.example1 () ]
      | `Ring -> [ Byzlab.relay_ring () ]
      | `Counter -> [ Byzlab.d_counter () ]
    in
    (match byz with
    | None -> ()
    | Some b ->
        List.iter
          (fun sc ->
            List.iter
              (fun j ->
                if j >= sc.Byzlab.nodes then (
                  Printf.eprintf
                    "stateless: Byzantine node %d out of range for %s (%d \
                     nodes)\n"
                    j sc.Byzlab.name sc.Byzlab.nodes;
                  exit 124))
              b)
          scenarios);
    (* An explicit placement is swept against the healthy baseline. *)
    let placements = Option.map (fun b -> [ []; b ]) byz in
    let first = ref true in
    let counts = ref zero_counts in
    let campaigns =
      List.map
        (fun sc ->
          let c, cnt =
            Byzlab.run_matrix ?placements ~seeds:runs ~attack ~max_steps
              ~domains ~seed0 ~policy:(leg_policy policy first)
              ~strategy sc
          in
          counts := add_counts !counts cnt;
          c)
        scenarios
    in
    List.iter (Byzlab.print_campaign stdout) campaigns;
    report_counts !counts;
    (match out with
    | None -> ()
    | Some path ->
        Bench_json.to_file path (fun oc ->
            Byzlab.write_json
              ~host:(Bench_json.host ~domains ())
              ~cells:(cell_triple !counts) oc campaigns);
        Printf.printf "  [wrote %s]\n" path);
    degraded_exit !counts
  in
  let run scenario n byz strategy runs attack max_steps domains seed0 certify_p
      r budget policy out =
    if certify_p then (
      (match scenario with
      | `All | `Example1 -> ()
      | `Ring | `Counter ->
          prerr_endline
            "stateless: --certify supports only the example1 scenario";
          exit 124);
      certify n byz r budget)
    else
      campaign scenario byz strategy runs attack max_steps domains seed0 policy
        out
  in
  let info =
    Cmd.info "byz"
      ~doc:
        "Byzantine-node attacks: sweep placements measuring deviation, \
         containment radius and recovery, or exhaustively certify \
         (r,B)-stabilization with --certify"
  in
  Cmd.v info
    Term.(
      const run $ scenario_arg $ nodes_arg $ byz_nodes_arg $ strategy_arg
      $ runs_arg $ attack_arg $ max_steps_arg $ domains_arg $ seed_arg
      $ certify_arg $ r_arg $ budget_arg $ policy_term $ out_arg)

(* ------------------------------------------------------------------ *)
(* sim                                                                 *)
(* ------------------------------------------------------------------ *)

(* BENCH_sim-style JSON for a per-seed result table; shared by the sim
   and campaign subcommands. Cells that timed out or errored are absent
   from the "runs" array (their accounting is in the "cells" block). *)
let write_sim_json ~host ?cells ~(inst : Simlab.instance) ~rate ~latency
    ~horizon ~(faults : Eventsim.faults) oc
    (results : Simlab.result option array) =
  Bench_json.write ~benchmark:"sim" ~host ?cells oc (fun oc ->
      Printf.fprintf oc
        "  \"instance\": { \"scenario\": %S, \"topology\": %S, \"latency\": \
         %S, \"nodes\": %d, \"edges\": %d, \"rate\": %g, \"horizon\": %g, \
         \"loss\": %g, \"dup\": %g, \"crash\": %g },\n"
        (Simlab.scenario_name inst.Simlab.scenario)
        (Simlab.topology_name inst.Simlab.topology)
        (Simlab.latency_name latency) inst.Simlab.nodes inst.Simlab.edges rate
        horizon faults.Eventsim.loss faults.Eventsim.dup faults.Eventsim.crash;
      let rows = List.filter_map Fun.id (Array.to_list results) in
      let last = List.length rows - 1 in
      Printf.fprintf oc "  \"runs\": [\n";
      List.iteri
        (fun i (r : Simlab.result) ->
          Printf.fprintf oc
            "    { \"seed\": %d, \"events\": %d, \"activations\": %d, \
             \"deliveries\": %d, \"lost\": %d, \"duplicated\": %d, \
             \"crash_windows\": %d, \"metric\": %d, \"label_hash\": %d }%s\n"
            r.Simlab.seed r.Simlab.events r.Simlab.activations
            r.Simlab.deliveries r.Simlab.lost r.Simlab.duplicated
            r.Simlab.crash_windows r.Simlab.metric r.Simlab.label_hash
            (if i = last then "" else ","))
        rows;
      Printf.fprintf oc "  ]\n")

let sim_cmd =
  let result_conv ~docv of_string name =
    Arg.conv ~docv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (of_string s)),
        fun ppf v -> Format.pp_print_string ppf (name v) )
  in
  let scenario_arg =
    let doc =
      "Scenario: 'contagion[:<threshold>:<seed-frac>]' (Morris threshold \
       contagion) or 'spp' (tiled Stable Paths Problem GOOD GADGETs)."
    in
    Arg.(
      value
      & opt
          (result_conv ~docv:"SCENARIO" Simlab.scenario_of_string
             Simlab.scenario_name)
          (Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 })
      & info [ "p"; "scenario" ] ~doc)
  in
  let topology_arg =
    let doc =
      "Topology: 'ring', 'torus', 'er[:<deg>]', 'smallworld[:<k>:<beta>]' \
       or 'prefattach[:<m>]' ('spp' builds its own tiled graph and ignores \
       this)."
    in
    Arg.(
      value
      & opt
          (result_conv ~docv:"TOPO" Simlab.topology_of_string
             Simlab.topology_name)
          Simlab.Ring
      & info [ "t"; "topology" ] ~doc)
  in
  let latency_arg =
    let doc =
      "Per-edge delivery-latency distribution: 'const:<c>', \
       'uniform:<lo>:<hi>', 'exp:<mean>' or 'pareto:<alpha>:<xmin>'."
    in
    Arg.(
      value
      & opt
          (result_conv ~docv:"LAT" Simlab.latency_of_string
             Simlab.latency_name)
          (Eventsim.Exp 1.0)
      & info [ "latency" ] ~doc)
  in
  let sim_nodes_arg =
    let doc = "Network size (at least 4 nodes)." in
    Arg.(
      value & opt pos_int_conv 10_000 & info [ "n"; "nodes" ] ~doc ~docv:"N")
  in
  let rate_arg =
    let doc = "Per-node Poisson activation rate." in
    Arg.(value & opt pos_float_conv 1.0 & info [ "rate" ] ~doc ~docv:"R")
  in
  let horizon_arg =
    let doc = "Simulated-time horizon." in
    Arg.(value & opt pos_float_conv 50.0 & info [ "horizon" ] ~doc ~docv:"T")
  in
  let runs_arg =
    let doc = "Independent trajectories (seeds)." in
    Arg.(value & opt pos_int_conv 5 & info [ "runs"; "seeds" ] ~doc ~docv:"N")
  in
  let graph_seed_arg =
    let doc = "Seed for randomized topology generation." in
    Arg.(value & opt pos_int_conv 42 & info [ "graph-seed" ] ~doc ~docv:"S")
  in
  let loss_arg =
    let doc = "Per-message loss probability." in
    Arg.(value & opt fraction_conv 0.0 & info [ "loss" ] ~doc)
  in
  let dup_arg =
    let doc = "Per-message duplication probability." in
    Arg.(value & opt fraction_conv 0.0 & info [ "dup" ] ~doc)
  in
  let crash_arg =
    let doc = "Per-activation crash probability." in
    Arg.(value & opt fraction_conv 0.0 & info [ "crash" ] ~doc)
  in
  let crash_len_arg =
    let doc = "Length of each crash window, in simulated time." in
    Arg.(value & opt pos_float_conv 1.0 & info [ "crash-len" ] ~doc ~docv:"T")
  in
  let run scenario topology nodes rate latency horizon runs domains seed0
      graph_seed loss dup crash crash_len policy out =
    if nodes < 4 then (
      prerr_endline "stateless: sim needs at least 4 nodes";
      exit 124);
    let faults = { Eventsim.loss; dup; crash; crash_len } in
    let inst =
      Simlab.build scenario topology ~graph_seed ~nodes ~rate ~latency
        ~faults
    in
    Printf.printf
      "%s on %s: %d nodes, %d edges; rate %g, latency %s, horizon %g\n"
      (Simlab.scenario_name scenario)
      (Simlab.topology_name topology)
      inst.Simlab.nodes inst.Simlab.edges rate
      (Simlab.latency_name latency)
      horizon;
    let results, counts =
      Simlab.run_matrix ~domains ~policy inst ~seed0 ~runs ~horizon
    in
    Printf.printf "  %6s %10s %11s %10s %7s %6s %7s %10s  %s\n" "seed"
      "events" "activations" "deliveries" "lost" "dup" "crashes" "metric"
      "labels";
    Array.iteri
      (fun i -> function
        | Some r ->
            Printf.printf "  %6d %10d %11d %10d %7d %6d %7d %10d  %016x\n"
              r.Simlab.seed r.Simlab.events r.Simlab.activations
              r.Simlab.deliveries r.Simlab.lost r.Simlab.duplicated
              r.Simlab.crash_windows r.Simlab.metric r.Simlab.label_hash
        | None ->
            Printf.printf "  %6d  <no result: cell timed out or errored>\n"
              (seed0 + i))
      results;
    report_counts counts;
    (match out with
    | None -> ()
    | Some path ->
        Bench_json.to_file path (fun oc ->
            write_sim_json
              ~host:(Bench_json.host ~domains ())
              ~cells:(cell_triple counts) ~inst ~rate ~latency ~horizon
              ~faults oc results);
        Printf.printf "  [wrote %s]\n" path);
    degraded_exit counts
  in
  let info =
    Cmd.info "sim"
      ~doc:
        "Event-driven continuous-time simulation: Poisson activations and \
         per-edge latency distributions over generated topologies, at up \
         to millions of nodes"
  in
  Cmd.v info
    Term.(
      const run $ scenario_arg $ topology_arg $ sim_nodes_arg $ rate_arg
      $ latency_arg $ horizon_arg $ runs_arg $ domains_arg $ seed_arg
      $ graph_seed_arg $ loss_arg $ dup_arg $ crash_arg $ crash_len_arg
      $ policy_term $ out_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let leg_names =
    [ ("faults", `Faults); ("netlab", `Netlab); ("byz", `Byz); ("sim", `Sim) ]
  in
  let matrix_arg =
    let doc =
      "Legs of the experiment matrix to run: 'all' or a comma-separated \
       subset of 'faults', 'netlab', 'byz', 'sim'. Legs run sequentially \
       and share the journal."
    in
    let legs_conv =
      let parse s =
        if String.trim s = "all" then Ok (List.map snd leg_names)
        else
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | n :: rest -> (
                match List.assoc_opt (String.trim n) leg_names with
                | Some l when not (List.mem l acc) -> go (l :: acc) rest
                | Some _ ->
                    Error (`Msg (Printf.sprintf "duplicate matrix leg %S" n))
                | None ->
                    Error
                      (`Msg
                        (Printf.sprintf
                           "unknown matrix leg %S: expected 'faults', \
                            'netlab', 'byz', 'sim' or 'all'"
                           n)))
          in
          go [] (String.split_on_char ',' s)
      in
      let print ppf legs =
        Format.pp_print_string ppf
          (String.concat ","
             (List.map
                (fun l -> fst (List.find (fun (_, l') -> l' = l) leg_names))
                legs))
      in
      Arg.conv ~docv:"LEGS" (parse, print)
    in
    Arg.(value & opt legs_conv (List.map snd leg_names) & info [ "matrix" ] ~doc)
  in
  let runs_arg =
    let doc = "Independent runs (seeds) per matrix row." in
    Arg.(value & opt pos_int_conv 10 & info [ "runs"; "seeds" ] ~doc ~docv:"N")
  in
  let out_arg =
    let doc =
      "Write one BENCH-style JSON file per leg, as \
       $(docv)_faults.json, $(docv)_netlab.json, $(docv)_byz.json and \
       $(docv)_sim.json (each written atomically: temp file + rename)."
    in
    Arg.(
      value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"PREFIX")
  in
  let run legs runs domains seed0 policy out =
    let first = ref true in
    let total = ref zero_counts in
    let write path emit =
      Bench_json.to_file path emit;
      Printf.printf "  [wrote %s]\n" path
    in
    let host = Bench_json.host ~domains () in
    List.iter
      (fun leg ->
        let counts = ref zero_counts in
        let matrix_leg run_one print_out write_out scenarios =
          let campaigns =
            List.map
              (fun sc ->
                let c, cnt = run_one (leg_policy policy first) sc in
                counts := add_counts !counts cnt;
                c)
              scenarios
          in
          List.iter print_out campaigns;
          Option.iter
            (fun prefix -> write_out prefix !counts campaigns)
            out
        in
        (match leg with
        | `Faults ->
            matrix_leg
              (fun policy sc ->
                Faultlab.run_matrix ~seeds:runs ~domains ~seed0 ~policy sc)
              (Faultlab.print_campaign stdout)
              (fun prefix counts campaigns ->
                write (prefix ^ "_faults.json") (fun oc ->
                    Faultlab.write_json ~host ~cells:(cell_triple counts) oc
                      campaigns))
              (Faultlab.default_scenarios ())
        | `Netlab ->
            let budget = { Netlab.k = 4; window = 8 } in
            matrix_leg
              (fun policy sc ->
                Netlab.run_matrix ~seeds:runs ~domains ~seed0 ~policy ~budget
                  sc)
              (Netlab.print_campaign stdout)
              (fun prefix counts campaigns ->
                write (prefix ^ "_netlab.json") (fun oc ->
                    Netlab.write_json ~host ~cells:(cell_triple counts) oc
                      campaigns))
              (Netlab.default_scenarios ())
        | `Byz ->
            matrix_leg
              (fun policy sc ->
                Byzlab.run_matrix ~seeds:runs ~domains ~seed0 ~policy
                  ~strategy:Byzlab.Seeded_random sc)
              (Byzlab.print_campaign stdout)
              (fun prefix counts campaigns ->
                write (prefix ^ "_byz.json") (fun oc ->
                    Byzlab.write_json ~host ~cells:(cell_triple counts) oc
                      campaigns))
              (Byzlab.default_scenarios ())
        | `Sim ->
            let faults =
              { Eventsim.loss = 0.05; dup = 0.02; crash = 0.0; crash_len = 1.0 }
            in
            let rate = 1.0 and latency = Eventsim.Exp 1.0 and horizon = 20.0 in
            let inst =
              Simlab.build
                (Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 })
                Simlab.Ring ~graph_seed:42 ~nodes:2000 ~rate ~latency ~faults
            in
            Printf.printf "sim leg: %s\n" inst.Simlab.desc;
            let results, cnt =
              Simlab.run_matrix ~domains ~policy:(leg_policy policy first)
                inst ~seed0 ~runs ~horizon
            in
            counts := add_counts !counts cnt;
            Array.iter
              (function
                | Some r ->
                    Printf.printf "  seed %d: %d events, metric %d\n"
                      r.Simlab.seed r.Simlab.events r.Simlab.metric
                | None -> ())
              results;
            Option.iter
              (fun prefix ->
                write (prefix ^ "_sim.json") (fun oc ->
                    write_sim_json ~host ~cells:(cell_triple !counts) ~inst
                      ~rate ~latency ~horizon ~faults oc results))
              out);
        total := add_counts !total !counts)
      legs;
    let c = !total in
    Printf.printf "campaign complete: %d ok (%d replayed), %d timeout, %d \
                   error\n"
      c.Campaign.ok c.Campaign.replayed c.Campaign.timeout c.Campaign.error;
    degraded_exit c
  in
  let info =
    Cmd.info "campaign"
      ~doc:
        "Run the labs' sweeps as one crash-tolerant experiment matrix: \
         cells stream to a resumable fsync'd JSON-lines journal, \
         over-deadline cells time out, crashed cells retry then degrade \
         to error records, and the campaign always completes"
  in
  Cmd.v info
    Term.(
      const run $ matrix_arg $ runs_arg $ domains_arg $ seed_arg $ policy_term
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let rounds_arg =
    let doc = "Storm rounds per lab leg before the clean resume." in
    Arg.(value & opt pos_int_conv 4 & info [ "rounds" ] ~doc ~docv:"N")
  in
  let chaos_domains_arg =
    let doc =
      "Domains for the stormed campaigns. The default 2 keeps the \
       domain-pool injection site live ($(b,--domains 1) runs inline and \
       bypasses the pool)."
    in
    Arg.(value & opt pos_int_conv 2 & info [ "domains" ] ~doc ~docv:"D")
  in
  let run seed rounds domains out =
    let reports = Chaoslab.run_storms ~domains ~rounds ~seed () in
    List.iter
      (fun (r : Chaoslab.leg_report) ->
        Printf.printf
          "chaos leg %-7s rounds %d  crashes %d  degraded %d  injections \
           %d  resume %s\n"
          r.Chaoslab.leg r.Chaoslab.rounds r.Chaoslab.crashes
          r.Chaoslab.degraded
          (Chaoslab.injected r.Chaoslab.injections)
          (if r.Chaoslab.identical then "identical" else "DIVERGED"))
      reports;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        List.iter
          (fun r ->
            output_string oc (Value.to_string (Chaoslab.report_to_value r));
            output_char oc '\n')
          reports;
        close_out oc;
        Printf.printf "  [wrote %s]\n" path);
    if List.exists (fun r -> not r.Chaoslab.identical) reports then begin
      prerr_endline
        "stateless: chaos storm broke resume identity (see report above)";
      exit 1
    end
  in
  let info =
    Cmd.info "chaos"
      ~doc:
        "Storm the campaign machinery with seeded fault injection — worker \
         crashes and stalls, torn/duplicated/dropped journal appends, short \
         reads, clock jumps — across all four lab codecs, then prove every \
         leg's clean resume merges identical to an uninterrupted reference \
         run (exit 1 if any leg diverges)"
  in
  Cmd.v info
    Term.(const run $ seed_arg $ rounds_arg $ chaos_domains_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let budget_arg =
    let doc = "Scenarios to generate and check." in
    Arg.(value & opt pos_int_conv 200 & info [ "budget" ] ~doc ~docv:"N")
  in
  let shrink_arg =
    let doc =
      "Shrink every divergence to a locally minimal witness before \
       reporting ($(b,--shrink=false) reports the raw scenario)."
    in
    Arg.(value & opt bool true & info [ "shrink" ] ~doc ~docv:"BOOL")
  in
  let mutant_conv =
    let parse s =
      match Fuzz.mutant_of_name s with
      | Some m -> Ok m
      | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown mutant %S (expected stale_read or dropped_write)"
                  s))
    in
    let print ppf m = Format.pp_print_string ppf (Fuzz.mutant_name m) in
    Arg.conv ~docv:"MUTANT" (parse, print)
  in
  let mutant_arg =
    let doc =
      "Plant a known-broken stepper ($(b,stale_read) or \
       $(b,dropped_write)) alongside the real engines to validate the \
       fuzzer: the run then succeeds only if the planted bug is found."
    in
    Arg.(value & opt (some mutant_conv) None & info [ "mutant" ] ~doc)
  in
  let run seed budget shrink mutant out =
    let report = Fuzz.run ?mutant ~shrink_found:shrink ~seed ~budget () in
    Printf.printf
      "fuzz: seed %d, %d scenarios, %d differential comparisons, %d \
       divergence(s), mean shrink ratio %.3f\n"
      report.Fuzz.seed report.Fuzz.tried report.Fuzz.comparisons
      (List.length report.Fuzz.found)
      report.Fuzz.mean_shrink_ratio;
    List.iter
      (fun (f : Fuzz.found) ->
        let d = f.Fuzz.shrunk in
        Printf.printf
          "  %s vs %s diverged at step %d (%s)\n    witness: %s\n"
          (fst d.Fuzz.pair) (snd d.Fuzz.pair) d.Fuzz.step d.Fuzz.detail
          (Value.to_string (Fuzz.witness_to_value ?mutant d)))
      report.Fuzz.found;
    (match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        let witnesses =
          List.map
            (fun (f : Fuzz.found) ->
              Fuzz.witness_to_value ?mutant f.Fuzz.shrunk)
            report.Fuzz.found
        in
        let v =
          Value.Obj
            [
              ("seed", Value.Int report.Fuzz.seed);
              ("budget", Value.Int report.Fuzz.budget);
              ("tried", Value.Int report.Fuzz.tried);
              ("comparisons", Value.Int report.Fuzz.comparisons);
              ("found", Value.Int (List.length report.Fuzz.found));
              ( "mean_shrink_ratio",
                Value.Float report.Fuzz.mean_shrink_ratio );
              ("witnesses", Value.List witnesses);
            ]
        in
        output_string oc (Value.to_string v);
        output_char oc '\n';
        close_out oc;
        Printf.printf "  [wrote %s]\n" path);
    match mutant with
    | None ->
        (* Clean mode: any divergence is a real cross-engine bug. *)
        if report.Fuzz.found <> [] then begin
          prerr_endline "stateless: engines diverged (see witnesses above)";
          exit 1
        end
    | Some m ->
        (* Validation mode: the planted bug must be found. *)
        if report.Fuzz.found = [] then begin
          Printf.eprintf
            "stateless: fuzzer missed the planted %s mutant in %d scenarios\n"
            (Fuzz.mutant_name m) budget;
          exit 1
        end
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Differentially fuzz the boxed engine against the packed kernel, \
         the synchronous event simulator, the channel and Byzantine twins and the checker oracle on random \
         protocols × schedules × fault configs, shrinking any divergence \
         to a minimal replayable witness (exit 1 on divergence; with \
         $(b,--mutant), exit 1 if the planted bug is $(i,not) found)"
  in
  Cmd.v info
    Term.(
      const run $ seed_arg $ budget_arg $ shrink_arg $ mutant_arg $ out_arg)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "stateless" ~version:"1.0.0"
      ~doc:"Stateless computation: simulation, verification, compilation"
  in
  (* Calibration and step-bound exceptions indicate a miscalibrated
     instance, not a crash: report them cleanly instead of a backtrace.
     ~catch:false hands term-evaluation exceptions to the handlers
     below (Cmdliner's default catch would swallow them first); the
     wildcard keeps exit 125 for genuinely unexpected ones. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [
              simulate_cmd; check_cmd; snake_cmd; compile_cmd; counter_cmd;
              spp_cmd; hunt_cmd; faults_cmd; netlab_cmd; byz_cmd; sim_cmd;
              campaign_cmd; chaos_cmd; fuzz_cmd;
            ])
     with
    | Snake.Step_bound_exhausted { reduction; d; max_steps } ->
        Printf.eprintf
          "stateless: %s reduction failed to settle for d = %d within %d \
           steps\n"
          reduction d max_steps;
        125
    | Two_counter.Calibration_failed { n; stage } ->
        Printf.eprintf
          "stateless: two-counter calibration failed at stage %s for n = %d\n"
          stage n;
        125
    | D_counter.Bad_geometry { n; d } ->
        Printf.eprintf
          "stateless: D-counter needs an odd ring n >= 3 and modulus d >= 2 \
           (got n = %d, d = %d)\n"
          n d;
        125
    | D_counter.Missing_ring_neighbour { node } ->
        Printf.eprintf
          "stateless: D-counter node %d lacks a ring neighbour (non-ring \
           graph)\n"
          node;
        125
    | Campaign.Journal_locked path ->
        Printf.eprintf
          "stateless: journal %s is locked by another running campaign \
           (two campaigns must not share a journal; wait or pick another \
           file)\n"
          path;
        2
    | Fooling.Empty_cut ->
        prerr_endline "stateless: fooling-set bound needs a non-empty cut";
        125
    | Fooling.Unsupported_size { fn; n } ->
        Printf.eprintf
          "stateless: no %s fooling set for n = %d\n" fn n;
        125
    | e ->
        Printf.eprintf "stateless: internal error, uncaught exception: %s\n"
          (Printexc.to_string e);
        125)
