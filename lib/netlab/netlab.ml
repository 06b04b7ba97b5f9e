(* Adversarial channel layer over the execution engines.

   The paper's model assumes perfectly reliable edges: the label a node
   writes is the label its successor reads next. This module relaxes that
   assumption with four per-edge/per-node fault processes — loss, bounded
   delay, duplication (stale reread) and crash-recover nodes — driven by a
   deterministic seeded adversary that may take at most [k] fault actions
   per window of [window] steps.

   One step of a channel-aware run, in order:

     1. window boundary: at steps t ≡ 0 (mod window) the budget recharges;
     2. wakes: nodes whose silence expires relabel their out-edges with
        adversarially drawn labels, visible immediately;
     3. the protocol step: the scheduled, non-silent nodes react to the
        visible configuration (the reaction engine's [step_into]);
     4. write faults: each label-changing write of an active node is,
        budget permitting, lost (the reader keeps seeing the stale label)
        or delayed 1..max_delay steps through a per-edge FIFO;
     5. deliveries: queued writes whose due step arrived become visible
        (a delayed write can clobber a fresher one: stale delivery);
     6. duplication: the adversary may revert one edge to the previous
        label it carried (the reader re-reads an old value);
     7. crash: the adversary may silence one node for crash_len steps; a
        silent node neither reacts nor updates its output, and on waking
        its out-edges are adversarially relabeled (step 2).

   With budget k = 0 the adversary can never act: no RNG draw occurs, the
   FIFOs stay empty, and steps 3 is the whole story — the channel steppers
   are bit-identical to the fault-free engines, which the differential
   tests in test_netlab.ml pin down.

   The stepper is written once, over int label codes, as a functor over
   the reaction engine: {!Packed} reacts through {!Kernel.step_into},
   {!Reference} through {!Engine.Coded} (the boxed engine behind a
   decode/encode). The adversary exists in one copy, so one seed yields
   the same storm on both and comparing them checks the kernel under
   faults at every budget, not only at 0. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Schedule = Stateless_core.Schedule
module Label = Stateless_core.Label
module Clique_example = Stateless_core.Clique_example
module Bench_json = Stateless_core.Bench_json
module D_counter = Stateless_counter.D_counter
module Digraph = Stateless_graph.Digraph
module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value

(* ------------------------------------------------------------------ *)
(* Fault processes and the budgeted adversary                          *)
(* ------------------------------------------------------------------ *)

type rates = {
  loss : float;
  delay : float;
  max_delay : int;
  dup : float;
  crash : float;
  crash_len : int;
}

let check_rates r =
  let frac name v =
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg (Printf.sprintf "Netlab: %s rate %g not in [0, 1]" name v)
  in
  frac "loss" r.loss;
  frac "delay" r.delay;
  frac "dup" r.dup;
  frac "crash" r.crash;
  if r.loss +. r.delay > 1.0 then
    invalid_arg "Netlab: loss + delay must not exceed 1 (one draw decides both)";
  if r.max_delay < 1 then invalid_arg "Netlab: max_delay must be >= 1";
  if r.crash_len < 1 then invalid_arg "Netlab: crash_len must be >= 1"

let rates ?(loss = 0.0) ?(delay = 0.0) ?(max_delay = 4) ?(dup = 0.0)
    ?(crash = 0.0) ?(crash_len = 2) () =
  let r = { loss; delay; max_delay; dup; crash; crash_len } in
  check_rates r;
  r

type budget = { k : int; window : int }

let check_budget b =
  if b.k < 0 then invalid_arg "Netlab: budget k must be >= 0";
  if b.window < 1 then invalid_arg "Netlab: budget window must be >= 1"

(* The adversary's decisions. All randomness lives here and in the wake
   relabeling; decisions are drawn in a fixed order per step, and a draw
   happens only when the remaining budget is positive — so a zero budget
   consumes no randomness at all. *)
type adv = {
  rng : Random.State.t;
  rates : rates;
  budget : budget;
  mutable remaining : int;
  mutable injected : int;
}

type write_action = Deliver | Lose | Delay of int

let adv_make ~rates ~budget ~seed =
  check_rates rates;
  check_budget budget;
  {
    rng = Random.State.make [| seed |];
    rates;
    budget;
    remaining = 0;
    injected = 0;
  }

let adv_begin_step a ~t = if t mod a.budget.window = 0 then a.remaining <- a.budget.k

let spend a =
  a.remaining <- a.remaining - 1;
  a.injected <- a.injected + 1

let adv_on_write a =
  if a.remaining = 0 then Deliver
  else
    let u = Random.State.float a.rng 1.0 in
    if u < a.rates.loss then begin
      spend a;
      Lose
    end
    else if u < a.rates.loss +. a.rates.delay then begin
      spend a;
      Delay (1 + Random.State.int a.rng a.rates.max_delay)
    end
    else Deliver

let adv_fires a rate =
  a.remaining > 0
  &&
  let u = Random.State.float a.rng 1.0 in
  if u < rate then begin
    spend a;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* The channel stepper, over any reaction engine                       *)
(* ------------------------------------------------------------------ *)

module Make (R : Engine.REACTION) = struct
  type ('x, 'l) t = {
    reaction : ('x, 'l) R.t;
    schedule : Schedule.t;
    adv : adv;
    n : int;
    m : int;
    card : int;
    decode : int -> 'l;
    out_edges : int array array;
    mutable src : int array;
    mutable dst : int array;
    mutable src_o : int array;
    mutable dst_o : int array;
    stale : int array;  (* per edge: the previous visible label code *)
    silent : int array;  (* per node: steps of silence left (0 = alive) *)
    cap : int;  (* per-edge FIFO capacity: max_delay pending writes *)
    fifo_code : int array;  (* m * cap, slots e*cap .. e*cap+len-1 *)
    fifo_due : int array;
    fifo_len : int array;
    mutable step_count : int;
  }

  let create reaction p ~rates ~budget ~schedule ~seed ~init =
    let n = Protocol.num_nodes p in
    let m = Protocol.num_edges p in
    let space = p.Protocol.space in
    let src = Array.map space.Label.encode init.Protocol.labels in
    let cap = rates.max_delay in
    {
      reaction;
      schedule;
      adv = adv_make ~rates ~budget ~seed;
      n;
      m;
      card = space.Label.card;
      decode = space.Label.decode;
      out_edges = Array.init n (Digraph.out_edges p.Protocol.graph);
      src;
      dst = Array.make m 0;
      src_o = Array.copy init.Protocol.outputs;
      dst_o = Array.make n 0;
      stale = Array.copy src;
      silent = Array.make n 0;
      cap;
      fifo_code = Array.make (m * cap) 0;
      fifo_due = Array.make (m * cap) 0;
      fifo_len = Array.make m 0;
      step_count = 0;
    }

  let enqueue ch e code due =
    let l = ch.fifo_len.(e) in
    (* At most one write per edge per step and every entry is due within
       max_delay steps, so the FIFO cannot overflow; the guard is belt and
       braces. *)
    if l < ch.cap then begin
      ch.fifo_code.((e * ch.cap) + l) <- code;
      ch.fifo_due.((e * ch.cap) + l) <- due;
      ch.fifo_len.(e) <- l + 1
    end

  (* Make every queued write with [due <= t] visible, in enqueue order,
     compacting the rest. *)
  let deliver_due ch t =
    for e = 0 to ch.m - 1 do
      let l = ch.fifo_len.(e) in
      if l > 0 then begin
        let base = e * ch.cap in
        let kept = ref 0 in
        for j = 0 to l - 1 do
          if ch.fifo_due.(base + j) <= t then begin
            let c = ch.fifo_code.(base + j) in
            if c <> ch.dst.(e) then begin
              ch.stale.(e) <- ch.dst.(e);
              ch.dst.(e) <- c
            end
          end
          else begin
            ch.fifo_code.(base + !kept) <- ch.fifo_code.(base + j);
            ch.fifo_due.(base + !kept) <- ch.fifo_due.(base + j);
            incr kept
          end
        done;
        ch.fifo_len.(e) <- !kept
      end
    done

  let step ch =
    let t = ch.step_count in
    let a = ch.adv in
    adv_begin_step a ~t;
    (* Wakes: silence expires before the step; a waking node's out-edges
       are adversarially relabeled and it participates this step. *)
    for i = 0 to ch.n - 1 do
      if ch.silent.(i) > 0 then begin
        ch.silent.(i) <- ch.silent.(i) - 1;
        if ch.silent.(i) = 0 then
          Array.iter
            (fun e ->
              let c = Random.State.int a.rng ch.card in
              if c <> ch.src.(e) then begin
                ch.stale.(e) <- ch.src.(e);
                ch.src.(e) <- c
              end)
            ch.out_edges.(i)
      end
    done;
    let active = ch.schedule.Schedule.active t in
    let alive =
      if Array.exists (fun s -> s > 0) ch.silent then
        List.filter (fun i -> ch.silent.(i) = 0) active
      else active
    in
    R.step_into ch.reaction ~src:ch.src ~src_outputs:ch.src_o ~dst:ch.dst
      ~dst_outputs:ch.dst_o ~active:alive;
    (* Write faults on this step's label-changing writes. *)
    List.iter
      (fun i ->
        Array.iter
          (fun e ->
            if ch.dst.(e) <> ch.src.(e) then
              match adv_on_write a with
              | Deliver -> ch.stale.(e) <- ch.src.(e)
              | Lose -> ch.dst.(e) <- ch.src.(e)
              | Delay d ->
                  enqueue ch e ch.dst.(e) (t + d);
                  ch.dst.(e) <- ch.src.(e))
          ch.out_edges.(i))
      alive;
    deliver_due ch t;
    if adv_fires a a.rates.dup then begin
      let e = Random.State.int a.rng ch.m in
      if ch.stale.(e) <> ch.dst.(e) then begin
        let old = ch.dst.(e) in
        ch.dst.(e) <- ch.stale.(e);
        ch.stale.(e) <- old
      end
    end;
    if adv_fires a a.rates.crash then begin
      let i = Random.State.int a.rng ch.n in
      (* crash_len + 1 because silence is decremented at step start: the
         node misses exactly crash_len activations, then wakes. *)
      if ch.silent.(i) = 0 then ch.silent.(i) <- a.rates.crash_len + 1
    end;
    let tl = ch.src and tlo = ch.src_o in
    ch.src <- ch.dst;
    ch.src_o <- ch.dst_o;
    ch.dst <- tl;
    ch.dst_o <- tlo;
    ch.step_count <- t + 1

  let run ch ~steps =
    for _ = 1 to steps do
      step ch
    done

  let labels ch = ch.src
  let outputs ch = ch.src_o
  let steps_done ch = ch.step_count
  let faults_injected ch = ch.adv.injected

  let config ch =
    {
      Protocol.labels = Array.map ch.decode ch.src;
      outputs = Array.copy ch.src_o;
    }

  (* End-of-storm cleanup: pending deliveries are dropped (lost with the
     storm) and silent nodes wake in place, without the adversarial
     relabel — their out-edges keep whatever the channel last showed. *)
  let flush ch =
    Array.fill ch.fifo_len 0 ch.m 0;
    Array.fill ch.silent 0 ch.n 0
end

module Packed = Make (Kernel)
module Reference = Make (Engine.Coded)

(* ------------------------------------------------------------------ *)
(* Campaign: degradation during a fault storm, recovery after it       *)
(* ------------------------------------------------------------------ *)

type run_result = { degraded_steps : int; recovery : int option }

type measure_fn =
  rates:rates ->
  budget:budget ->
  storm:int ->
  seed:int ->
  max_steps:int ->
  run_result

type scenario = {
  name : string;
  schedule_name : string;
  fresh : unit -> measure_fn;
}

(* One storm: [storm] channel steps from [steady], counting the steps on
   which [healthy] fails; returns that count and the flushed post-storm
   configuration. *)
let storm_phase kern p ~schedule ~steady ~healthy ~rates ~budget ~storm ~seed
    =
  let ch = Packed.create kern p ~rates ~budget ~schedule ~seed ~init:steady in
  let degraded = ref 0 in
  for _ = 1 to storm do
    Packed.step ch;
    if not (healthy ch) then incr degraded
  done;
  Packed.flush ch;
  (!degraded, Packed.config ch)

let settle_time settled = Option.map (fun s -> s.Engine.settle_time) settled

(* Example 1 on K_n: the reference is the healthy run's settled outputs;
   a storm step is degraded when the visible outputs differ from them, and
   recovery is the post-storm output settle time. *)
let example1 ?(n = 4) () =
  let n = max 3 n in
  let p = Clique_example.make n in
  let input = Clique_example.input n in
  let init = Clique_example.oscillation_init p in
  let schedule = Schedule.synchronous n in
  (* Per-domain context: a kernel and the storm from its healthy run. *)
  let fresh () =
    let kern = Kernel.create p ~input in
    let storm_run =
      match Kernel.settle kern ~init ~schedule ~max_steps:10_000 with
      | None -> invalid_arg "Netlab.example1: healthy run did not settle"
      | Some h ->
          let reference = h.Engine.settled_outputs in
          storm_phase kern p ~schedule ~steady:h.Engine.horizon_config
            ~healthy:(fun ch ->
              Array.for_all2 Int.equal (Packed.outputs ch) reference)
    in
    fun ~rates ~budget ~storm ~seed ~max_steps ->
      let degraded_steps, post = storm_run ~rates ~budget ~storm ~seed in
      {
        degraded_steps;
        recovery =
          settle_time (Kernel.settle kern ~init:post ~schedule ~max_steps);
      }
  in
  {
    name = Printf.sprintf "example1_k%d" n;
    schedule_name = schedule.Schedule.name;
    fresh;
  }

(* The D-counter: a storm step is degraded when the per-node counters
   disagree; recovery is re-locking — the first post-storm step from which
   the counters agree for d consecutive synchronous steps. *)
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
  let m = Protocol.num_edges p in
  let first_out =
    Array.init n (fun j -> (Digraph.out_edges p.Protocol.graph j).(0))
  in
  let everyone = List.init n Fun.id in
  (* Per-domain context: a kernel, the storm probing counter agreement
     on the packed labels, and the re-lock loop's buffers. *)
  let fresh () =
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
    let storm_run =
      storm_phase kern p ~schedule ~steady ~healthy:(fun ch ->
          agreed (Packed.labels ch))
    in
    let bufs = Array.init 2 (fun _ -> Array.make m 0) in
    let obufs = Array.init 2 (fun _ -> Array.make n 0) in
    fun ~rates ~budget ~storm ~seed ~max_steps ->
      let degraded_steps, post = storm_run ~rates ~budget ~storm ~seed in
      (* Re-lock loop, as in Faultlab's d_counter scenario. *)
      let cur = ref bufs.(0) and curo = ref obufs.(0) in
      let nxt = ref bufs.(1) and nxto = ref obufs.(1) in
      Kernel.load kern post ~labels:!cur ~outputs:!curo;
      let run_len = ref 0 in
      let found = ref None in
      let s = ref 0 in
      while !found = None && !s <= max_steps do
        if agreed !cur then begin
          incr run_len;
          if !run_len >= d then found := Some (!s - d + 1)
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
      { degraded_steps; recovery = !found }
  in
  {
    name = Printf.sprintf "d_counter_n%d_d%d" n d;
    schedule_name = schedule.Schedule.name;
    fresh;
  }

let default_scenarios () = [ example1 (); d_counter () ]
let scenario_names = [ "example1"; "counter" ]

let scenario_by_name ?n name =
  match name with
  | "example1" -> Some (example1 ?n ())
  | "counter" -> Some (d_counter ?n ())
  | _ -> None

type level_stats = {
  level : rates;
  runs : int;
  recovered : int;
  mean_recovery : float;
  p50 : int;
  p95 : int;
  worst : int;
  mean_degraded : float;  (* mean fraction of storm steps degraded *)
}

type campaign = {
  scenario_name : string;
  schedule : string;
  budget_k : int;
  budget_window : int;
  storm : int;
  runs_per_level : int;
  levels : level_stats list;
}

(* Loss and delay rising together, with proportional duplication and a
   light crash process — the "curves as rates rise" sweep. *)
let default_levels =
  List.map
    (fun (l, d) ->
      rates ~loss:l ~delay:d ~max_delay:4 ~dup:(l /. 2.) ~crash:(d /. 4.)
        ~crash_len:2 ())
    [ (0.0, 0.0); (0.05, 0.05); (0.15, 0.10); (0.30, 0.20); (0.50, 0.30) ]

(* One matrix cell per rate level covering its whole seed block; the
   codec stores each run as a [degraded_steps, recovery] pair (recovery
   [Null] when the run never re-locked). Results are int-only, so the
   round-trip is exact and replayed merges stay bit-identical. *)
let codec : run_result array Campaign.codec =
  {
    encode =
      (fun row ->
        Value.List
          (Array.to_list
             (Array.map
                (fun r ->
                  Value.List
                    [
                      Value.Int r.degraded_steps;
                      (match r.recovery with
                      | Some t -> Value.Int t
                      | None -> Value.Null);
                    ])
                row)));
    decode =
      (fun v ->
        match v with
        | Value.List items -> (
            try
              Some
                (Array.of_list
                   (List.map
                      (function
                        | Value.List [ Value.Int d; Value.Int r ] ->
                            { degraded_steps = d; recovery = Some r }
                        | Value.List [ Value.Int d; Value.Null ] ->
                            { degraded_steps = d; recovery = None }
                        | _ -> raise Exit)
                      items))
            with Exit -> None)
        | _ -> None);
  }

let level_config ~name ~schedule ~budget ~storm ~seeds ~seed0 ~max_steps lv =
  Printf.sprintf
    "netlab scenario=%s schedule=%s loss=%.6g delay=%.6g max_delay=%d \
     dup=%.6g crash=%.6g crash_len=%d k=%d window=%d storm=%d seeds=%d \
     seed0=%d max_steps=%d"
    name schedule lv.loss lv.delay lv.max_delay lv.dup lv.crash lv.crash_len
    budget.k budget.window storm seeds seed0 max_steps

let cells ?(levels = default_levels) ?(seeds = 20) ?(storm = 400)
    ?(max_steps = 10_000) ?(seed0 = 1) ?batch:_ ~budget sc =
  check_budget budget;
  List.iter check_rates levels;
  Array.of_list
    (List.mapi
       (fun li level ->
         {
           Campaign.key = Printf.sprintf "netlab/%s/l%d" sc.name li;
           config =
             level_config ~name:sc.name ~schedule:sc.schedule_name ~budget
               ~storm ~seeds ~seed0 ~max_steps level;
           run =
             (fun ~deadline ~attempt ->
               Campaign.seed_block ~seeds ~seed0 ~deadline ~attempt
                 ~fresh:(fun () ->
                   let measure = sc.fresh () in
                   fun seed ->
                     measure ~rates:level ~budget ~storm ~seed ~max_steps));
         })
       levels)

(* A [None] row (timed-out or errored cell) degrades to zero recoveries
   and zero degradation, keeping the merged campaign's shape. *)
let stats_of_row ~seeds ~storm level row =
  let results = Option.value row ~default:[||] in
  let s = Campaign.summary (Array.map (fun r -> r.recovery) results) in
  let degr = Array.fold_left (fun acc r -> acc + r.degraded_steps) 0 results in
  {
    level;
    runs = seeds;
    recovered = s.recovered;
    mean_recovery = s.mean;
    p50 = s.p50;
    p95 = s.p95;
    worst = s.worst;
    mean_degraded = float degr /. float (seeds * max 1 storm);
  }

let run_matrix ?(levels = default_levels) ?(seeds = 20) ?(storm = 400)
    ?(max_steps = 10_000) ?(domains = 1) ?(seed0 = 1) ?policy ~budget sc =
  let cs = cells ~levels ~seeds ~storm ~max_steps ~seed0 ~budget sc in
  let outcome = Campaign.run ~domains ?policy ~codec cs in
  let level_stats =
    List.mapi
      (fun li level ->
        stats_of_row ~seeds ~storm level
          outcome.Campaign.records.(li).Campaign.result)
      levels
  in
  ( {
      scenario_name = sc.name;
      schedule = sc.schedule_name;
      budget_k = budget.k;
      budget_window = budget.window;
      storm;
      runs_per_level = seeds;
      levels = level_stats;
    },
    outcome.Campaign.counts )

let run ?levels ?seeds ?storm ?max_steps ?domains ?seed0 ~budget sc =
  fst (run_matrix ?levels ?seeds ?storm ?max_steps ?domains ?seed0 ~budget sc)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let print_campaign oc c =
  Printf.fprintf oc
    "  %s (schedule: %s, budget %d per %d-step window, storm %d, %d runs \
     per level)\n"
    c.scenario_name c.schedule c.budget_k c.budget_window c.storm
    c.runs_per_level;
  Printf.fprintf oc "    %6s %6s %5s %6s %10s %10s %6s %6s %6s %8s\n" "loss"
    "delay" "dup" "crash" "recovered" "mean" "p50" "p95" "worst" "degr";
  List.iter
    (fun s ->
      Printf.fprintf oc
        "    %6.2f %6.2f %5.2f %6.2f %7d/%-2d %10.2f %6d %6d %6d %7.1f%%\n"
        s.level.loss s.level.delay s.level.dup s.level.crash s.recovered
        s.runs s.mean_recovery s.p50 s.p95 s.worst (100. *. s.mean_degraded))
    c.levels

let write_json ?host ?cells ?certification oc campaigns =
  Bench_json.write ~benchmark:"netlab" ?host ?cells ?certification oc
    (fun oc ->
      Printf.fprintf oc "  \"campaigns\": [\n";
      List.iteri
        (fun i c ->
          Printf.fprintf oc
            "    { \"scenario\": %S, \"schedule\": %S, \"budget_k\": %d, \
             \"budget_window\": %d, \"storm_steps\": %d, \"runs_per_level\": \
             %d,\n\
            \      \"levels\": [\n"
            c.scenario_name c.schedule c.budget_k c.budget_window c.storm
            c.runs_per_level;
          List.iteri
            (fun j s ->
              Printf.fprintf oc
                "        { \"loss\": %.3f, \"delay\": %.3f, \"dup\": %.3f, \
                 \"crash\": %.3f, \"max_delay\": %d, \"crash_len\": %d, \
                 \"runs\": %d, \"recovered\": %d, \"mean_recovery_steps\": \
                 %.3f, \"p50_steps\": %d, \"p95_steps\": %d, \"worst_steps\": \
                 %d, \"mean_degraded_fraction\": %.4f }%s\n"
                s.level.loss s.level.delay s.level.dup s.level.crash
                s.level.max_delay s.level.crash_len s.runs s.recovered
                s.mean_recovery s.p50 s.p95 s.worst s.mean_degraded
                (if j = List.length c.levels - 1 then "" else ","))
            c.levels;
          Printf.fprintf oc "      ] }%s\n"
            (if i = List.length campaigns - 1 then "" else ","))
        campaigns;
      Printf.fprintf oc "  ]\n")
