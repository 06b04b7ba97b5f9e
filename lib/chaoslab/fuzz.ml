(* Cross-engine differential fuzzer with greedy counterexample
   shrinking. See fuzz.mli for the contract. *)

module Protocol = Stateless_core.Protocol
module Schedule = Stateless_core.Schedule
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Eventsim = Stateless_core.Eventsim
module Proptest = Stateless_core.Proptest
module Digraph = Stateless_graph.Digraph
module Checker = Stateless_checker.Checker
module Value = Stateless_campaign.Value
module Netlab = Stateless_netlab.Netlab
module Byzlab = Stateless_byzlab.Byzlab
module Netcheck = Stateless_netlab.Netcheck
module Byzcheck = Stateless_byzlab.Byzcheck

type sched_kind = Sync | Rr | Fair of int
type mutant = Stale_read | Dropped_write

type scenario = {
  seed : int;
  nodes : int;
  extra : int;
  card : int;
  steps : int;
  sched : sched_kind;
  loss : float;
  dup : float;
  budget_k : int;
  byz : int;
}

type divergence = {
  scenario : scenario;
  pair : string * string;
  step : int;
  detail : string;
}

let mutant_name = function
  | Stale_read -> "stale_read"
  | Dropped_write -> "dropped_write"

let mutant_of_name = function
  | "stale_read" -> Some Stale_read
  | "dropped_write" -> Some Dropped_write
  | _ -> None

let sched_name = function
  | Sync -> "sync"
  | Rr -> "rr"
  | Fair k -> Printf.sprintf "fair:%d" k

let sched_of_name s =
  match s with
  | "sync" -> Some Sync
  | "rr" -> Some Rr
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "fair" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some k -> Some (Fair k)
          | None -> None)
      | _ -> None)

(* The structural weight the shrinker minimizes. Every candidate move
   strictly decreases it, so shrinking terminates. *)
let size s =
  s.nodes + s.extra + s.card + s.steps + s.budget_k + s.byz
  + (if s.loss > 0.0 then 1 else 0)
  + (if s.dup > 0.0 then 1 else 0)
  + (match s.sched with Sync -> 0 | Rr -> 1 | Fair _ -> 2)

(* ------------------------------------------------------------------ *)
(* Building a scenario's world                                         *)
(* ------------------------------------------------------------------ *)

let build s =
  let p, input =
    Proptest.protocol_of ~seed:s.seed ~nodes:s.nodes ~extra:s.extra
      ~card:s.card ()
  in
  let st = Random.State.make [| 0x1417; s.seed |] in
  let init = Proptest.random_config p st in
  let schedule =
    match s.sched with
    | Sync -> Schedule.synchronous s.nodes
    | Rr -> Schedule.round_robin s.nodes
    | Fair k -> Schedule.random_fair ~seed:(s.seed + k) ~r:2 s.nodes
  in
  (p, input, init, schedule)

let digest p (c : _ Protocol.config) =
  Protocol.config_key p c
  ^ "/"
  ^ String.concat "," (Array.to_list (Array.map string_of_int c.outputs))

(* ------------------------------------------------------------------ *)
(* Trajectories: one digest per step, per engine                       *)
(* ------------------------------------------------------------------ *)

let traj_engine p ~input ~init ~schedule ~steps =
  Array.of_list
    (List.map (digest p) (Engine.trace p ~input ~init ~schedule ~steps))

let traj_kernel p ~input ~init ~schedule ~steps =
  let kern = Kernel.create p ~input in
  let out = Array.make (steps + 1) "" in
  let c = ref init in
  out.(0) <- digest p init;
  for t = 0 to steps - 1 do
    c := Kernel.step kern !c ~active:(schedule.Schedule.active t);
    out.(t + 1) <- digest p !c
  done;
  out

let traj_eventsim p ~input ~init ~steps =
  (* Synchronous anchor mode: horizon [t] is exactly [t] lock-step
     rounds, and the resumable clock lets us sample every step. *)
  let sim = Eventsim.create ~sync:true ~seed:1 p ~input ~init in
  let out = Array.make (steps + 1) "" in
  out.(0) <- digest p init;
  for t = 1 to steps do
    ignore (Eventsim.run sim ~horizon:(float_of_int t));
    out.(t) <- digest p (Eventsim.config sim)
  done;
  out

(* A fresh asynchronous simulator for [s]. The latency shape, activation
   rate and crash rate come from the scenario seed; loss and duplication
   are the scenario's channel rates. *)
let async_eventsim s p ~input ~init =
  let st = Random.State.make [| 0xa5e7; s.seed |] in
  let f () = Random.State.float st 1.0 in
  let latency =
    match Random.State.int st 4 with
    | 0 -> Eventsim.Const (f ())
    | 1 ->
        let lo = f () in
        Eventsim.Uniform (lo, if Random.State.bool st then lo else lo +. f ())
    | 2 -> Eventsim.Exp (0.05 +. f ())
    | _ -> Eventsim.Pareto (0.5 +. (2.0 *. f ()), 0.05 +. f ())
  in
  let rate = 0.5 +. (2.0 *. f ()) in
  let crash = if Random.State.bool st then 0.0 else 0.2 *. f () in
  let faults =
    { Eventsim.loss = s.loss; dup = s.dup; crash; crash_len = 2.0 *. f () }
  in
  Eventsim.create ~rate ~latency ~faults ~seed:s.seed p ~input ~init

(* Labels, outputs and every counter. *)
let snapshot sim =
  (Array.copy (Eventsim.labels sim), Array.copy (Eventsim.outputs sim),
   Eventsim.stats sim)

(* The deliberately broken steppers used to validate the fuzzer. Both
   are classic engine bugs:
   - [Stale_read] serializes the activation set: later nodes react to
     configurations already updated by earlier nodes this step, instead
     of to the common previous configuration.
   - [Dropped_write] loses node 0's first out-edge write (the old label
     survives) whenever node 0 is scheduled. *)
let mutant_step mutant p ~input c ~active =
  match mutant with
  | Stale_read ->
      List.fold_left
        (fun acc i -> Engine.step p ~input acc ~active:[ i ])
        c active
  | Dropped_write ->
      let c' = Engine.step p ~input c ~active in
      (if List.mem 0 active then
         let oe = Digraph.out_edges p.Protocol.graph 0 in
         if Array.length oe > 0 then
           c'.Protocol.labels.(oe.(0)) <- c.Protocol.labels.(oe.(0)));
      c'

let traj_mutant mutant p ~input ~init ~schedule ~steps =
  let out = Array.make (steps + 1) "" in
  out.(0) <- digest p init;
  let c = ref init in
  for t = 0 to steps - 1 do
    c := mutant_step mutant p ~input !c ~active:(schedule.Schedule.active t);
    out.(t + 1) <- digest p !c
  done;
  out

let first_diff a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then None
    else if String.equal a.(i) b.(i) then go (i + 1)
    else Some i
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The differential pairs                                              *)
(* ------------------------------------------------------------------ *)

(* Runs every applicable pair for [s]; returns the pair count and the
   first divergence. The boxed engine is the reference for the core
   group; the channel and Byzantine adversaries each run once over the
   boxed engine's reaction and once over the kernel's; small labeling
   spaces compare the three certifiers against the naive oracle. *)
let check_counted ?mutant (s : scenario) : int * divergence option =
  let p, input, init, schedule = build s in
  let steps = s.steps in
  let pairs = ref 0 in
  let found = ref None in
  let core_pair name traj =
    if !found = None then begin
      incr pairs;
      let reference = traj_engine p ~input ~init ~schedule ~steps in
      match first_diff reference (traj ()) with
      | Some t ->
          found :=
            Some
              {
                scenario = s;
                pair = ("engine", name);
                step = t;
                detail = Printf.sprintf "configs differ from step %d" t;
              }
      | None -> ()
    end
  in
  core_pair "kernel" (fun () -> traj_kernel p ~input ~init ~schedule ~steps);
  if s.sched = Sync then
    core_pair "eventsim" (fun () -> traj_eventsim p ~input ~init ~steps);
  (match mutant with
  | Some m ->
      core_pair
        ("mutant:" ^ mutant_name m)
        (fun () -> traj_mutant m p ~input ~init ~schedule ~steps)
  | None -> ());
  (* The asynchronous simulator run through random horizon cuts against
     the same seed run to each cut in one call: applying every delivery
     due at a cut must leave the trajectory unchanged. Transient label
     errors can wash out of a stabilizing run, so every cut is compared,
     not only the last. *)
  if !found = None then begin
    incr pairs;
    let horizon = float_of_int s.steps in
    let st = Random.State.make [| 0xc075; s.seed |] in
    let cuts =
      List.sort compare
        (List.init (4 * s.steps) (fun _ -> Random.State.float st horizon))
    in
    let cut = async_eventsim s p ~input ~init in
    found :=
      List.find_map
        (fun h ->
          ignore (Eventsim.run cut ~horizon:h);
          let whole = async_eventsim s p ~input ~init in
          ignore (Eventsim.run whole ~horizon:h);
          if snapshot whole = snapshot cut then None
          else
            Some
              {
                scenario = s;
                pair = ("eventsim-async", "eventsim-cut");
                step = 0;
                detail =
                  Printf.sprintf "horizon cuts change the async run at %g" h;
              })
        (cuts @ [ horizon ])
  end;
  (* One channel adversary over both reaction engines, under the
     scenario's fault budget. The pair keeps its historical name. *)
  if !found = None then begin
    incr pairs;
    let rates = Netlab.rates ~loss:s.loss ~dup:s.dup () in
    let budget = { Netlab.k = s.budget_k; window = 4 } in
    let boxed =
      Netlab.Reference.create (Engine.Coded.create p ~input) p ~rates ~budget
        ~schedule ~seed:s.seed ~init
    in
    let packed =
      Netlab.Packed.create (Kernel.create p ~input) p ~rates ~budget ~schedule
        ~seed:s.seed ~init
    in
    (try
       for t = 1 to steps do
         Netlab.Reference.step boxed;
         Netlab.Packed.step packed;
         if
           not
             (Proptest.config_eq p
                (Netlab.Reference.config boxed)
                (Netlab.Packed.config packed))
         then begin
           found :=
             Some
               {
                 scenario = s;
                 pair = ("netlab-boxed", "netlab-packed");
                 step = t;
                 detail = "channel twins diverged";
               };
           raise Exit
         end
       done;
       if
         Netlab.Reference.faults_injected boxed
         <> Netlab.Packed.faults_injected packed
       then
         found :=
           Some
             {
               scenario = s;
               pair = ("netlab-boxed", "netlab-packed");
               step = steps;
               detail = "fault counts differ";
             }
     with Exit -> ())
  end;
  (* One Byzantine adversary over both reaction engines, when the
     scenario places adversaries. *)
  if !found = None && s.byz > 0 then begin
    incr pairs;
    let byz = List.init (min s.byz s.nodes) Fun.id in
    let boxed =
      Byzlab.Reference.create (Engine.Coded.create p ~input) p ~byz
        ~strategy:Byzlab.Seeded_random ~schedule ~seed:s.seed ~init
    in
    let packed =
      Byzlab.Packed.create (Kernel.create p ~input) p ~byz
        ~strategy:Byzlab.Seeded_random ~schedule ~seed:s.seed ~init
    in
    Byzlab.Reference.run boxed ~steps;
    Byzlab.Packed.run packed ~steps;
    if
      (not
         (Proptest.config_eq p
            (Byzlab.Reference.config boxed)
            (Byzlab.Packed.config packed)))
      || Byzlab.Reference.writes_done boxed <> Byzlab.Packed.writes_done packed
    then
      found :=
        Some
          {
            scenario = s;
            pair = ("byz-boxed", "byz-packed");
            step = steps;
            detail = "byzantine twins diverged";
          }
  end;
  (* The production checker, and each adversarial certifier at the point
     where its adversary vanishes (budget 0, no Byzantine node), against
     the naive oracle, gated to small labeling spaces. With a budget or
     Byzantine nodes in the scenario, the adversarial certifiers' witnesses
     must also replay on both execution engines. *)
  (if !found = None then
     match Protocol.labelings_count p with
     | Some n when n <= 2048 ->
         let budget = 20000 in
         let kind = function
           | `St -> "stabilizing"
           | `Osc -> "oscillating"
           | `Big -> "too_large"
         in
         let naive =
           match
             Checker.Naive.check_label p ~input ~r:1 ~max_states:budget
           with
           | Checker.Stabilizing -> `St
           | Checker.Oscillating _ -> `Osc
           | Checker.Too_large _ -> `Big
         in
         let pair name verdict ~witness_ok =
           if !found = None then begin
             incr pairs;
             let fast = verdict () in
             let detail =
               if fast <> naive then
                 Some
                   (Printf.sprintf "verdicts differ: %s vs %s" (kind fast)
                      (kind naive))
               else if not (witness_ok ()) then
                 Some "adversarial witness fails to replay"
               else None
             in
             Option.iter
               (fun detail ->
                 found :=
                   Some
                     { scenario = s; pair = (name, "naive"); step = 0; detail })
               detail
           end
         in
         pair "checker"
           (fun () ->
             match Checker.check_label p ~input ~r:1 ~max_states:budget with
             | Checker.Stabilizing -> `St
             | Checker.Oscillating _ -> `Osc
             | Checker.Too_large _ -> `Big)
           ~witness_ok:(fun () -> true);
         pair "netcheck-k0"
           (fun () ->
             match
               Netcheck.check_label p ~input ~r:1 ~k:0 ~window:1
                 ~max_states:budget
             with
             | Netcheck.Stabilizing -> `St
             | Netcheck.Oscillating _ -> `Osc
             | Netcheck.Too_large _ -> `Big)
           ~witness_ok:(fun () ->
             s.budget_k = 0
             ||
             match
               Netcheck.check_label p ~input ~r:1 ~k:s.budget_k ~window:4
                 ~max_states:budget
             with
             | Netcheck.Oscillating w ->
                 Netcheck.replay p ~input w && Netcheck.replay_packed p ~input w
             | Netcheck.Stabilizing | Netcheck.Too_large _ -> true);
         let byz = List.init (min s.byz s.nodes) Fun.id in
         pair "byzcheck-empty"
           (fun () ->
             match
               Byzcheck.check_label p ~input ~byz:[] ~r:1 ~max_states:budget
             with
             | Byzcheck.Stabilizing -> `St
             | Byzcheck.Oscillating _ -> `Osc
             | Byzcheck.Too_large _ -> `Big)
           ~witness_ok:(fun () ->
             byz = []
             ||
             match
               Byzcheck.check_label p ~input ~byz ~r:1 ~max_states:budget
             with
             | Byzcheck.Oscillating w ->
                 Byzcheck.replay p ~input ~byz w
                 && Byzcheck.replay_packed p ~input ~byz w
             | Byzcheck.Stabilizing | Byzcheck.Too_large _ -> true)
     | Some _ | None -> ());
  (!pairs, !found)

let check ?mutant s = snd (check_counted ?mutant s)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* One-step reductions along the shrink lattice: truncate the schedule,
   drop nodes and extra edges, shrink the label alphabet, zero the
   fault budgets, drop Byzantine nodes, simplify the schedule. Every
   candidate has strictly smaller {!size}. *)
let candidates s =
  let clamp_byz s = { s with byz = min s.byz s.nodes } in
  List.concat
    [
      (if s.steps > 1 then
         [ { s with steps = s.steps / 2 }; { s with steps = s.steps - 1 } ]
       else []);
      (if s.nodes > 2 then [ clamp_byz { s with nodes = s.nodes - 1 } ]
       else []);
      (if s.extra > 0 then
         [ { s with extra = 0 }; { s with extra = s.extra - 1 } ]
       else []);
      (if s.card > 2 then [ { s with card = s.card - 1 } ] else []);
      (if s.loss > 0.0 then [ { s with loss = 0.0 } ] else []);
      (if s.dup > 0.0 then [ { s with dup = 0.0 } ] else []);
      (if s.budget_k > 0 then [ { s with budget_k = 0 } ] else []);
      (if s.byz > 0 then [ { s with byz = s.byz - 1 } ] else []);
      (match s.sched with
      | Fair _ -> [ { s with sched = Sync }; { s with sched = Rr } ]
      | Rr -> [ { s with sched = Sync } ]
      | Sync -> []);
    ]

(* Greedy first-improvement descent: adopt any candidate that still
   diverges (possibly on a different pair — any divergence is a bug)
   and restart from it. [max_checks] bounds the predicate calls, so a
   pathological lattice cannot stall a CI run. *)
let shrink ?mutant ?(max_checks = 400) (d : divergence) =
  let checks = ref 0 in
  let rec descend d =
    let next =
      List.find_map
        (fun s' ->
          if !checks >= max_checks then None
          else begin
            incr checks;
            check ?mutant s'
          end)
        (candidates d.scenario)
    in
    match next with Some d' -> descend d' | None -> d
  in
  descend d

let shrink_ratio ~original ~shrunk =
  let a = size original.scenario and b = size shrunk.scenario in
  if a = 0 then 1.0 else float_of_int b /. float_of_int a

(* ------------------------------------------------------------------ *)
(* Witness serialization and replay                                    *)
(* ------------------------------------------------------------------ *)

let scenario_to_value s =
  Value.Obj
    [
      ("seed", Value.Int s.seed);
      ("nodes", Value.Int s.nodes);
      ("extra", Value.Int s.extra);
      ("card", Value.Int s.card);
      ("steps", Value.Int s.steps);
      ("sched", Value.String (sched_name s.sched));
      ("loss", Value.Float s.loss);
      ("dup", Value.Float s.dup);
      ("budget_k", Value.Int s.budget_k);
      ("byz", Value.Int s.byz);
    ]

let scenario_of_value v =
  let int k = Option.bind (Value.member k v) Value.to_int in
  let flt k =
    Option.bind (Value.member k v) (function
      | Value.Float f -> Some f
      | Value.Int n -> Some (float_of_int n)
      | _ -> None)
  in
  let str k =
    Option.bind (Value.member k v) (function
      | Value.String s -> Some s
      | _ -> None)
  in
  match
    ( int "seed",
      int "nodes",
      int "extra",
      int "card",
      int "steps",
      Option.bind (str "sched") sched_of_name,
      flt "loss",
      flt "dup",
      int "budget_k",
      int "byz" )
  with
  | ( Some seed,
      Some nodes,
      Some extra,
      Some card,
      Some steps,
      Some sched,
      Some loss,
      Some dup,
      Some budget_k,
      Some byz ) ->
      Some { seed; nodes; extra; card; steps; sched; loss; dup; budget_k; byz }
  | _ -> None

let witness_to_value ?mutant (d : divergence) =
  Value.Obj
    [
      ("scenario", scenario_to_value d.scenario);
      ( "mutant",
        match mutant with
        | Some m -> Value.String (mutant_name m)
        | None -> Value.Null );
      ( "pair",
        Value.List [ Value.String (fst d.pair); Value.String (snd d.pair) ] );
      ("step", Value.Int d.step);
      ("detail", Value.String d.detail);
    ]

(* Replaying a witness re-runs the full differential check on its
   scenario (under its recorded mutant, if any): the divergence must
   reproduce from the serialized record alone. *)
let replay v =
  match Option.bind (Value.member "scenario" v) scenario_of_value with
  | None -> Error "witness: bad or missing scenario"
  | Some s ->
      let mutant =
        match Value.member "mutant" v with
        | Some (Value.String m) -> mutant_of_name m
        | _ -> None
      in
      Ok (check ?mutant s)

(* ------------------------------------------------------------------ *)
(* The fuzz loop                                                       *)
(* ------------------------------------------------------------------ *)

let gen ~seed i =
  let st = Random.State.make [| 0xf0a2; seed; i |] in
  let nodes = 2 + Random.State.int st 3 in
  let extra = Random.State.int st 3 in
  let card = 2 + Random.State.int st 3 in
  let steps = 1 + Random.State.int st 24 in
  let sched =
    match Random.State.int st 3 with
    | 0 -> Sync
    | 1 -> Rr
    | _ -> Fair (1 + Random.State.int st 997)
  in
  let loss =
    if Random.State.bool st then 0.0 else Random.State.float st 0.4
  in
  let dup = if Random.State.bool st then 0.0 else Random.State.float st 0.3 in
  let budget_k = Random.State.int st 4 in
  let byz = Random.State.int st (min 3 nodes) in
  {
    seed = (seed * 1_000_003) + i;
    nodes;
    extra;
    card;
    steps;
    sched;
    loss;
    dup;
    budget_k;
    byz;
  }

type found = { original : divergence; shrunk : divergence }

type report = {
  seed : int;
  budget : int;
  tried : int;
  comparisons : int;
  found : found list;
  mean_shrink_ratio : float;  (** 1.0 when nothing diverged *)
}

let run ?mutant ?(shrink_found = true) ~seed ~budget () =
  let comparisons = ref 0 in
  let found = ref [] in
  for i = 0 to budget - 1 do
    let s = gen ~seed i in
    let pairs, d = check_counted ?mutant s in
    comparisons := !comparisons + pairs;
    match d with
    | None -> ()
    | Some d ->
        let shrunk = if shrink_found then shrink ?mutant d else d in
        found := { original = d; shrunk } :: !found
  done;
  let found = List.rev !found in
  let mean_shrink_ratio =
    match found with
    | [] -> 1.0
    | l ->
        List.fold_left
          (fun acc f ->
            acc +. shrink_ratio ~original:f.original ~shrunk:f.shrunk)
          0.0 l
        /. float_of_int (List.length l)
  in
  {
    seed;
    budget;
    tried = budget;
    comparisons = !comparisons;
    found;
    mean_shrink_ratio;
  }
