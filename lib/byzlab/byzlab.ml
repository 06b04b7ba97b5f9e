(* Byzantine-node attack layer over the execution engines.

   Where Netlab's adversary corrupts the {e channels}, this module
   corrupts the {e nodes}: a designated set B runs an attack strategy
   instead of the protocol. One step of a Byzantine run, in order:

     1. the protocol step: the scheduled {e correct} nodes react to the
        visible configuration (the reaction engine's [step_into]);
        scheduled Byzantine nodes do not react;
     2. Byzantine writes: each scheduled Byzantine node overwrites its
        out-edges according to the strategy — [Seeded_random] draws one
        uniform label code per out-edge from the stepper's RNG (in
        activation-list order, then out-edge order), [Anti_majority]
        deterministically writes the label code rarest in the visible
        pre-step labeling (ties to the smallest code), and [Replay]
        plays a {!Byzcheck.witness}'s scripted write stream (prefix
        once, then the cycle forever).

   With B = ∅ no strategy ever acts: no RNG draw occurs and step 1 is
   the whole story — the steppers are bit-identical to the fault-free
   engines, which the differential tests in test_byzlab.ml pin down.
   The stepper is written once, over int label codes, as a functor over
   the reaction engine: {!Packed} reacts through {!Kernel.step_into},
   {!Reference} through {!Engine.Coded} (the boxed engine behind a
   decode/encode), so one seed yields the same attack on both.

   The campaign layer sweeps Byzantine placements over Example 1
   cliques, a relay ring and the D-counter, measuring per placement the
   deviant fraction of attack steps, the fraction of correct nodes that
   never deviated, the empirical containment radius (max hop distance
   from B of a deviating correct node) and the recovery time once the
   Byzantine nodes resume correct behavior. *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Schedule = Stateless_core.Schedule
module Label = Stateless_core.Label
module Clique_example = Stateless_core.Clique_example
module Bench_json = Stateless_core.Bench_json
module D_counter = Stateless_counter.D_counter
module Digraph = Stateless_graph.Digraph
module Algorithms = Stateless_graph.Algorithms
module Builders = Stateless_graph.Builders
module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value

type strategy =
  | Seeded_random
  | Anti_majority
  | Replay of Byzcheck.witness

let strategy_name = function
  | Seeded_random -> "random"
  | Anti_majority -> "anti-majority"
  | Replay _ -> "replay"

let strategy_by_name = function
  | "random" -> Some Seeded_random
  | "anti-majority" -> Some Anti_majority
  | _ -> None

let strategy_names = [ "random"; "anti-majority" ]

(* Shared stepper scaffolding: the Byzantine set as a membership array,
   the script compiled from a Replay witness, and validation. *)
type plan = {
  byz : bool array;
  have_byz : bool;
  out_edges : int array array;
  strategy : strategy;
  s_prefix : Byzcheck.step array;
  s_cycle : Byzcheck.step array;
}

let plan_make p ~byz ~strategy =
  let n = Protocol.num_nodes p in
  let mem = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Byzlab: node %d out of range" i);
      if mem.(i) then
        invalid_arg (Printf.sprintf "Byzlab: duplicate Byzantine node %d" i);
      mem.(i) <- true)
    byz;
  let out_edges = Array.init n (Digraph.out_edges p.Protocol.graph) in
  let s_prefix, s_cycle =
    match strategy with
    | Replay w ->
        let owner = Array.make (Protocol.num_edges p) (-1) in
        Array.iteri
          (fun i es -> if mem.(i) then Array.iter (fun e -> owner.(e) <- i) es)
          out_edges;
        List.iter
          (fun (s : Byzcheck.step) ->
            List.iter
              (fun (w : Byzcheck.write) ->
                if w.Byzcheck.edge < 0 || w.Byzcheck.edge >= Array.length owner
                   || owner.(w.Byzcheck.edge) < 0
                then
                  invalid_arg
                    (Printf.sprintf
                       "Byzlab: scripted write on edge %d, not an out-edge \
                        of a Byzantine node"
                       w.Byzcheck.edge))
              s.Byzcheck.writes)
          (w.Byzcheck.prefix @ w.Byzcheck.cycle);
        (Array.of_list w.Byzcheck.prefix, Array.of_list w.Byzcheck.cycle)
    | _ -> ([||], [||])
  in
  {
    byz = mem;
    have_byz = Array.exists Fun.id mem;
    out_edges;
    strategy;
    s_prefix;
    s_cycle;
  }

let plan_writes_at plan t =
  let pl = Array.length plan.s_prefix in
  if t < pl then plan.s_prefix.(t).Byzcheck.writes
  else
    let cl = Array.length plan.s_cycle in
    if cl = 0 then [] else plan.s_cycle.((t - pl) mod cl).Byzcheck.writes

let correct_active plan active =
  if plan.have_byz then List.filter (fun i -> not plan.byz.(i)) active
  else active

(* ------------------------------------------------------------------ *)
(* The Byzantine stepper, over any reaction engine                     *)
(* ------------------------------------------------------------------ *)

module Make (R : Engine.REACTION) = struct
  type ('x, 'l) t = {
    reaction : ('x, 'l) R.t;
    schedule : Schedule.t;
    rng : Random.State.t;
    plan : plan;
    m : int;
    card : int;
    decode : int -> 'l;
    counts : int array;  (* scratch for Anti_majority, card cells *)
    mutable src : int array;
    mutable dst : int array;
    mutable src_o : int array;
    mutable dst_o : int array;
    mutable step_count : int;
    mutable writes_done : int;
  }

  let create reaction p ~byz ~strategy ~schedule ~seed ~init =
    let space = p.Protocol.space in
    {
      reaction;
      schedule;
      rng = Random.State.make [| seed |];
      plan = plan_make p ~byz ~strategy;
      m = Protocol.num_edges p;
      card = space.Label.card;
      decode = space.Label.decode;
      counts = Array.make space.Label.card 0;
      src = Array.map space.Label.encode init.Protocol.labels;
      dst = Array.make (Protocol.num_edges p) 0;
      src_o = Array.copy init.Protocol.outputs;
      dst_o = Array.make (Protocol.num_nodes p) 0;
      step_count = 0;
      writes_done = 0;
    }

  (* The rarest label code in the visible pre-step labeling (ties to the
     smallest code) — the write that maximizes disagreement. *)
  let minority_code ch =
    Array.fill ch.counts 0 ch.card 0;
    for e = 0 to ch.m - 1 do
      ch.counts.(ch.src.(e)) <- ch.counts.(ch.src.(e)) + 1
    done;
    let best = ref 0 in
    for c = 1 to ch.card - 1 do
      if ch.counts.(c) < ch.counts.(!best) then best := c
    done;
    !best

  let step ch =
    let t = ch.step_count in
    let plan = ch.plan in
    let active = ch.schedule.Schedule.active t in
    R.step_into ch.reaction ~src:ch.src ~src_outputs:ch.src_o ~dst:ch.dst
      ~dst_outputs:ch.dst_o ~active:(correct_active plan active);
    if plan.have_byz then begin
      match plan.strategy with
      | Seeded_random ->
          List.iter
            (fun i ->
              if plan.byz.(i) then
                Array.iter
                  (fun e ->
                    ch.dst.(e) <- Random.State.int ch.rng ch.card;
                    ch.writes_done <- ch.writes_done + 1)
                  plan.out_edges.(i))
            active
      | Anti_majority ->
          if List.exists (fun i -> plan.byz.(i)) active then begin
            let c = minority_code ch in
            List.iter
              (fun i ->
                if plan.byz.(i) then
                  Array.iter
                    (fun e ->
                      ch.dst.(e) <- c;
                      ch.writes_done <- ch.writes_done + 1)
                    plan.out_edges.(i))
              active
          end
      | Replay _ ->
          List.iter
            (fun (w : Byzcheck.write) ->
              ch.dst.(w.Byzcheck.edge) <- w.Byzcheck.code;
              ch.writes_done <- ch.writes_done + 1)
            (plan_writes_at plan t)
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
  let writes_done ch = ch.writes_done

  let config ch =
    {
      Protocol.labels = Array.map ch.decode ch.src;
      outputs = Array.copy ch.src_o;
    }
end

module Packed = Make (Kernel)
module Reference = Make (Engine.Coded)

(* ------------------------------------------------------------------ *)
(* Campaign: deviation during an attack, recovery after it             *)
(* ------------------------------------------------------------------ *)

type run_result = {
  deviant_steps : int;  (* attack steps where some correct node deviated *)
  deviant_nodes : int;  (* correct nodes that ever deviated *)
  max_radius : int;  (* max distance-from-B of a deviating node, -1 none *)
  recovery : int option;  (* steps to recover once B behaves, None = never *)
}

type measure_fn =
  byz:int list ->
  strategy:strategy ->
  attack:int ->
  seed:int ->
  max_steps:int ->
  run_result

type scenario = {
  name : string;
  schedule_name : string;
  nodes : int;
  placements : int list list;
  fresh : unit -> measure_fn;
}

(* Hop distance from the Byzantine set (min over members); -1 for
   unreachable nodes and when B is empty. *)
let distances_from_byz g byz =
  let n = Digraph.num_nodes g in
  let dist = Array.make n (-1) in
  List.iter
    (fun b ->
      let d = Algorithms.bfs_distances g b in
      for i = 0 to n - 1 do
        if d.(i) >= 0 && (dist.(i) < 0 || d.(i) < dist.(i)) then
          dist.(i) <- d.(i)
      done)
    byz;
  dist

let result_of ~graph ~byz ~deviated ~deviant_steps ~recovery =
  let n = Array.length deviated in
  let dist = distances_from_byz graph byz in
  let deviant_nodes = ref 0 and radius = ref (-1) in
  for i = 0 to n - 1 do
    if deviated.(i) then begin
      incr deviant_nodes;
      if dist.(i) > !radius then radius := dist.(i)
    end
  done;
  { deviant_steps; deviant_nodes = !deviant_nodes; max_radius = !radius; recovery }

let byz_member n byz =
  let mem = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then mem.(i) <- true) byz;
  mem

(* One attack: [attack] Byzantine steps from [init]. [probe ch mem
   deviated] marks the correct nodes ([mem] is the Byzantine
   membership) that deviate after a step and says whether any did.
   Returns the deviation marks, the deviant step count and the
   post-attack configuration. *)
let attack_phase kern p ~schedule ~init ~probe ~byz ~strategy ~attack ~seed =
  let n = Protocol.num_nodes p in
  let ch = Packed.create kern p ~byz ~strategy ~schedule ~seed ~init in
  let mem = byz_member n byz in
  let deviated = Array.make n false in
  let deviant = ref 0 in
  for _ = 1 to attack do
    Packed.step ch;
    if probe ch mem deviated then incr deviant
  done;
  (deviated, !deviant, Packed.config ch)

(* A correct node deviates when its output differs from [reference]. *)
let output_probe reference ch mem deviated =
  let outs = Packed.outputs ch in
  let bad = ref false in
  for i = 0 to Array.length reference - 1 do
    if (not mem.(i)) && outs.(i) <> reference.(i) then begin
      deviated.(i) <- true;
      bad := true
    end
  done;
  !bad

let settle_time settled = Option.map (fun s -> s.Engine.settle_time) settled

(* A scenario judged by outputs whose recovery is the post-attack output
   settle time. [healthy kern] gives the reference outputs and the
   configuration every attack starts from. *)
let settle_scenario ~name p ~input ~schedule ~placements ~healthy =
  let graph = p.Protocol.graph in
  let fresh () =
    let kern = Kernel.create p ~input in
    let reference, init = healthy kern in
    let attack_run =
      attack_phase kern p ~schedule ~init ~probe:(output_probe reference)
    in
    fun ~byz ~strategy ~attack ~seed ~max_steps ->
      let deviated, deviant_steps, post =
        attack_run ~byz ~strategy ~attack ~seed
      in
      result_of ~graph ~byz ~deviated ~deviant_steps
        ~recovery:
          (settle_time (Kernel.settle kern ~init:post ~schedule ~max_steps))
  in
  {
    name;
    schedule_name = schedule.Schedule.name;
    nodes = Protocol.num_nodes p;
    placements;
    fresh;
  }

(* Example 1 on K_n: the reference is the healthy run's settled outputs;
   an attack step is deviant when some correct node's output differs from
   it, and recovery is the post-attack output settle time. *)
let example1 ?(n = 4) () =
  let n = max 3 n in
  let p = Clique_example.make n in
  let init = Clique_example.oscillation_init p in
  let schedule = Schedule.synchronous n in
  settle_scenario
    ~name:(Printf.sprintf "example1_k%d" n)
    p ~input:(Clique_example.input n) ~schedule
    ~placements:[ []; [ 0 ]; [ 0; 1 ] ]
    ~healthy:(fun kern ->
      match Kernel.settle kern ~init ~schedule ~max_steps:10_000 with
      | Some h -> (h.Engine.settled_outputs, h.Engine.horizon_config)
      | None -> invalid_arg "Byzlab.example1: healthy run did not settle")

(* A unidirectional relay ring: each node forwards the label it reads and
   outputs it. Healthy from the all-false labeling nothing ever changes;
   a Byzantine node's lies travel around the whole ring (worst-case
   containment), and injected labels keep circulating after the attack —
   the ring generally does not recover. *)
let relay_ring ?(n = 6) () =
  let n = max 3 n in
  let p =
    {
      Protocol.name = Printf.sprintf "relay_ring_%d" n;
      graph = Builders.ring_uni n;
      space = Label.bool;
      react =
        (fun _ () incoming ->
          ([| incoming.(0) |], if incoming.(0) then 1 else 0));
    }
  in
  settle_scenario
    ~name:(Printf.sprintf "relay_ring_%d" n)
    p ~input:(Array.make n ()) ~schedule:(Schedule.synchronous n)
    ~placements:[ []; [ 0 ]; [ 0; 1 ]; [ 0; n / 2 ] ]
    ~healthy:(fun _ -> (Array.make n 0, Protocol.uniform_config p false))

(* The D-counter: an attack step is deviant when the correct nodes'
   counters disagree; a node deviates when its counter differs from the
   most common value among correct nodes. Recovery is re-locking — the
   first post-attack step from which all counters agree for d consecutive
   synchronous steps. *)
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
  let graph = p.Protocol.graph in
  (* Per-domain context: a kernel, its counter reader, the attack probing
     counter deviation on the packed labels and the re-lock loop's
     buffers. *)
  let fresh () =
    let kern = Kernel.create p ~input in
    let counter_at labels j =
      let _, (_, _, c) = Kernel.decode_label kern labels.(first_out.(j)) in
      c
    in
    let vals = Array.make n 0 in
    let probe ch mem deviated =
      let labels = Packed.labels ch in
      for i = 0 to n - 1 do
        vals.(i) <- counter_at labels i
      done;
      (* Most common counter value among correct nodes (ties to the
         smallest value), the per-step reference. *)
      let modal = ref 0 and modal_count = ref (-1) in
      for i = 0 to n - 1 do
        if not mem.(i) then begin
          let c = ref 0 in
          for j = 0 to n - 1 do
            if (not mem.(j)) && vals.(j) = vals.(i) then incr c
          done;
          if !c > !modal_count || (!c = !modal_count && vals.(i) < !modal)
          then begin
            modal := vals.(i);
            modal_count := !c
          end
        end
      done;
      let bad = ref false in
      for i = 0 to n - 1 do
        if (not mem.(i)) && vals.(i) <> !modal then begin
          deviated.(i) <- true;
          bad := true
        end
      done;
      !bad
    in
    let attack_run = attack_phase kern p ~schedule ~init:steady ~probe in
    let agreed labels =
      let c0 = counter_at labels 0 in
      let rec go j = j >= n || (counter_at labels j = c0 && go (j + 1)) in
      go 1
    in
    let bufs = Array.init 2 (fun _ -> Array.make m 0) in
    let obufs = Array.init 2 (fun _ -> Array.make n 0) in
    fun ~byz ~strategy ~attack ~seed ~max_steps ->
      let deviated, deviant_steps, post =
        attack_run ~byz ~strategy ~attack ~seed
      in
      (* Re-lock loop, as in Netlab's d_counter scenario. *)
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
      result_of ~graph ~byz ~deviated ~deviant_steps ~recovery:!found
  in
  {
    name = Printf.sprintf "d_counter_n%d_d%d" n d;
    schedule_name = schedule.Schedule.name;
    nodes = n;
    placements = [ []; [ 0 ]; [ 0; 2 ] ];
    fresh;
  }

let default_scenarios () = [ example1 (); relay_ring (); d_counter () ]
let scenario_names = [ "example1"; "ring"; "counter" ]

let scenario_by_name ?n name =
  match name with
  | "example1" -> Some (example1 ?n ())
  | "ring" -> Some (relay_ring ?n ())
  | "counter" -> Some (d_counter ?n ())
  | _ -> None

type level_stats = {
  byz : int list;
  runs : int;
  mean_deviant : float;  (* mean fraction of attack steps deviant *)
  mean_stabilized : float;  (* mean fraction of correct nodes undeviated *)
  worst_radius : int;  (* max empirical containment radius, -1 = contained *)
  recovered : int;
  mean_recovery : float;
  p50 : int;
  p95 : int;
  worst : int;
}

type campaign = {
  scenario_name : string;
  schedule : string;
  strategy : string;
  attack : int;
  runs_per_level : int;
  levels : level_stats list;
}

let string_of_byz byz =
  "[" ^ String.concat "," (List.map string_of_int byz) ^ "]"

(* One matrix cell per Byzantine placement covering its whole seed
   block. Each run journals as [[deviant_steps, deviant_nodes,
   max_radius, recovery]] (recovery null when never recovered) —
   int-only, so the round-trip is exact. *)
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
                      Value.Int r.deviant_steps;
                      Value.Int r.deviant_nodes;
                      Value.Int r.max_radius;
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
                        | Value.List
                            [ Value.Int ds; Value.Int dn; Value.Int mr; rv ]
                          ->
                            let recovery =
                              match rv with
                              | Value.Int t -> Some t
                              | Value.Null -> None
                              | _ -> raise Exit
                            in
                            {
                              deviant_steps = ds;
                              deviant_nodes = dn;
                              max_radius = mr;
                              recovery;
                            }
                        | _ -> raise Exit)
                      items))
            with Exit -> None)
        | _ -> None);
  }

(* [Replay] witnesses carry no stable textual form; a structural hash
   keeps distinct witnesses from fingerprint-colliding. Journaled replay
   cells are only replayed within the same witness anyway. *)
let strategy_config = function
  | Seeded_random -> "random"
  | Anti_majority -> "anti-majority"
  | Replay w -> Printf.sprintf "replay#%08x" (Hashtbl.hash w)

let cells ?placements ?(seeds = 20) ?(attack = 400) ?(max_steps = 10_000)
    ?(seed0 = 1) ?batch:_ ~strategy sc =
  let pls = match placements with Some p -> p | None -> sc.placements in
  Array.of_list
    (List.mapi
       (fun li byz ->
         {
           Campaign.key = Printf.sprintf "byz/%s/p%d" sc.name li;
           config =
             Printf.sprintf
               "byz scenario=%s schedule=%s byz=%s strategy=%s attack=%d \
                seeds=%d seed0=%d max_steps=%d"
               sc.name sc.schedule_name (string_of_byz byz)
               (strategy_config strategy) attack seeds seed0 max_steps;
           run =
             (fun ~deadline ~attempt ->
               Campaign.seed_block ~seeds ~seed0 ~deadline ~attempt
                 ~fresh:(fun () ->
                   let measure = sc.fresh () in
                   fun seed -> measure ~byz ~strategy ~attack ~seed ~max_steps));
         })
       pls)

(* A [None] row (timed-out or errored cell) degrades to a fully
   stabilized, zero-deviation level — shape-identical merges. *)
let stats_of_row ~nodes ~seeds ~attack byz row =
  let correct = nodes - List.length byz in
  let dev = ref 0 and stab = ref 0. and radius = ref (-1) in
  (match row with
  | None -> stab := float seeds
  | Some results ->
      (* Last run first: the float sum's order is part of the output. *)
      for j = seeds - 1 downto 0 do
        let r = results.(j) in
        dev := !dev + r.deviant_steps;
        stab :=
          !stab
          +.
          if correct = 0 then 1.0
          else float (correct - r.deviant_nodes) /. float correct;
        if r.max_radius > !radius then radius := r.max_radius
      done);
  let s =
    Campaign.summary
      (Array.map (fun r -> r.recovery) (Option.value row ~default:[||]))
  in
  {
    byz;
    runs = seeds;
    mean_deviant = float !dev /. float (seeds * max 1 attack);
    mean_stabilized = !stab /. float seeds;
    worst_radius = !radius;
    recovered = s.recovered;
    mean_recovery = s.mean;
    p50 = s.p50;
    p95 = s.p95;
    worst = s.worst;
  }

let run_matrix ?placements ?(seeds = 20) ?(attack = 400) ?(max_steps = 10_000)
    ?(domains = 1) ?(seed0 = 1) ?policy ~strategy sc =
  let pls = match placements with Some p -> p | None -> sc.placements in
  let cs = cells ~placements:pls ~seeds ~attack ~max_steps ~seed0 ~strategy sc in
  let outcome = Campaign.run ~domains ?policy ~codec cs in
  let levels =
    List.mapi
      (fun li byz ->
        stats_of_row ~nodes:sc.nodes ~seeds ~attack byz
          outcome.Campaign.records.(li).Campaign.result)
      pls
  in
  ( {
      scenario_name = sc.name;
      schedule = sc.schedule_name;
      strategy = strategy_name strategy;
      attack;
      runs_per_level = seeds;
      levels;
    },
    outcome.Campaign.counts )

let run ?placements ?seeds ?attack ?max_steps ?domains ?seed0 ~strategy sc =
  fst
    (run_matrix ?placements ?seeds ?attack ?max_steps ?domains ?seed0 ~strategy
       sc)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let print_campaign oc c =
  Printf.fprintf oc
    "  %s (schedule: %s, strategy: %s, attack %d steps, %d runs per level)\n"
    c.scenario_name c.schedule c.strategy c.attack c.runs_per_level;
  Printf.fprintf oc "    %10s %10s %10s %7s %10s %10s %6s %6s %6s\n" "byz"
    "deviant" "stabilized" "radius" "recovered" "mean" "p50" "p95" "worst";
  List.iter
    (fun s ->
      Printf.fprintf oc
        "    %10s %9.1f%% %9.1f%% %7d %7d/%-2d %10.2f %6d %6d %6d\n"
        (string_of_byz s.byz)
        (100. *. s.mean_deviant)
        (100. *. s.mean_stabilized)
        s.worst_radius s.recovered s.runs s.mean_recovery s.p50 s.p95 s.worst)
    c.levels

let write_json ?host ?cells ?certification oc campaigns =
  Bench_json.write ~benchmark:"byzlab" ?host ?cells ?certification oc
    (fun oc ->
      Printf.fprintf oc "  \"campaigns\": [\n";
      List.iteri
        (fun i c ->
          Printf.fprintf oc
            "    { \"scenario\": %S, \"schedule\": %S, \"strategy\": %S, \
             \"attack_steps\": %d, \"runs_per_level\": %d,\n\
            \      \"levels\": [\n"
            c.scenario_name c.schedule c.strategy c.attack c.runs_per_level;
          List.iteri
            (fun j s ->
              Printf.fprintf oc
                "        { \"byz\": %S, \"byz_count\": %d, \"runs\": %d, \
                 \"mean_deviant_fraction\": %.4f, \"stabilized_fraction\": \
                 %.4f, \"worst_radius\": %d, \"recovered\": %d, \
                 \"mean_recovery_steps\": %.3f, \"p50_steps\": %d, \
                 \"p95_steps\": %d, \"worst_steps\": %d }%s\n"
                (string_of_byz s.byz) (List.length s.byz) s.runs s.mean_deviant
                s.mean_stabilized s.worst_radius s.recovered s.mean_recovery
                s.p50 s.p95 s.worst
                (if j = List.length c.levels - 1 then "" else ","))
            c.levels;
          Printf.fprintf oc "      ] }%s\n"
            (if i = List.length campaigns - 1 then "" else ","))
        campaigns;
      Printf.fprintf oc "  ]\n")
