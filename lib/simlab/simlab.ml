module Protocol = Stateless_core.Protocol
module Kernel = Stateless_core.Kernel
module Eventsim = Stateless_core.Eventsim
module Parrun = Stateless_core.Parrun
module Label = Stateless_core.Label
module Digraph = Stateless_graph.Digraph
module Builders = Stateless_graph.Builders
module Contagion = Stateless_games.Contagion
module Best_response = Stateless_games.Best_response
module Spp = Stateless_games.Spp

type topology =
  | Ring
  | Torus
  | Erdos_renyi of float
  | Small_world of int * float
  | Pref_attach of int

let topology_name = function
  | Ring -> "ring"
  | Torus -> "torus"
  | Erdos_renyi d -> Printf.sprintf "er:%g" d
  | Small_world (k, beta) -> Printf.sprintf "smallworld:%d:%g" k beta
  | Pref_attach m -> Printf.sprintf "prefattach:%d" m

let topology_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "ring" ] -> Ok Ring
  | [ "torus" ] -> Ok Torus
  | [ "er" ] -> Ok (Erdos_renyi 4.0)
  | [ "er"; d ] -> (
      match float_of_string_opt d with
      | Some d when d > 0.0 -> Ok (Erdos_renyi d)
      | _ -> Error "er:<avg-out-degree> expects a positive float")
  | [ "smallworld" ] -> Ok (Small_world (2, 0.1))
  | [ "smallworld"; k; beta ] -> (
      match (int_of_string_opt k, float_of_string_opt beta) with
      | Some k, Some beta when k >= 1 && beta >= 0.0 && beta <= 1.0 ->
          Ok (Small_world (k, beta))
      | _ -> Error "smallworld:<k>:<beta> expects k >= 1 and beta in [0,1]")
  | [ "prefattach" ] -> Ok (Pref_attach 2)
  | [ "prefattach"; m ] -> (
      match int_of_string_opt m with
      | Some m when m >= 1 -> Ok (Pref_attach m)
      | _ -> Error "prefattach:<m> expects m >= 1")
  | _ ->
      Error
        "unknown topology (ring | torus | er[:<deg>] | \
         smallworld[:<k>:<beta>] | prefattach[:<m>])"

let graph_of topo ~seed ~nodes =
  if nodes < 4 then invalid_arg "Simlab.graph_of: need at least 4 nodes";
  match topo with
  | Ring -> Builders.ring_bi nodes
  | Torus ->
      let rows = max 3 (int_of_float (sqrt (float_of_int nodes))) in
      let cols = max 3 (nodes / rows) in
      Builders.torus rows cols
  | Erdos_renyi avg_out ->
      Builders.erdos_renyi_sparse ~seed nodes
        ~avg_out:(min avg_out (float_of_int (nodes - 1)))
  | Small_world (k, beta) -> Builders.small_world ~seed nodes ~k ~beta
  | Pref_attach m -> Builders.preferential_attachment ~seed nodes ~m

let latency_name = function
  | Eventsim.Const c -> Printf.sprintf "const:%g" c
  | Eventsim.Uniform (lo, hi) -> Printf.sprintf "uniform:%g:%g" lo hi
  | Eventsim.Exp mean -> Printf.sprintf "exp:%g" mean
  | Eventsim.Pareto (alpha, xmin) -> Printf.sprintf "pareto:%g:%g" alpha xmin

(* Mirrors [Eventsim.check_latency]'s constraints so malformed CLI flags
   surface as parse errors rather than [Invalid_argument] later. *)
let latency_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "const"; c ] -> (
      match float_of_string_opt c with
      | Some c when c >= 0.0 -> Ok (Eventsim.Const c)
      | _ -> Error "const:<c> expects a nonnegative float")
  | [ "uniform"; lo; hi ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi) with
      | Some lo, Some hi when lo >= 0.0 && hi >= lo ->
          Ok (Eventsim.Uniform (lo, hi))
      | _ -> Error "uniform:<lo>:<hi> expects 0 <= lo <= hi")
  | [ "exp"; mean ] -> (
      match float_of_string_opt mean with
      | Some mean when mean > 0.0 -> Ok (Eventsim.Exp mean)
      | _ -> Error "exp:<mean> expects a positive float")
  | [ "pareto"; alpha; xmin ] -> (
      match (float_of_string_opt alpha, float_of_string_opt xmin) with
      | Some alpha, Some xmin when alpha > 0.0 && xmin > 0.0 ->
          Ok (Eventsim.Pareto (alpha, xmin))
      | _ -> Error "pareto:<alpha>:<xmin> expects positive floats")
  | _ ->
      Error
        "unknown latency (const:<c> | uniform:<lo>:<hi> | exp:<mean> | \
         pareto:<alpha>:<xmin>)"

type scenario =
  | Contagion of { threshold : float; seed_frac : float }
  | Spp_gadget

let scenario_name = function
  | Contagion { threshold; seed_frac } ->
      Printf.sprintf "contagion:%g:%g" threshold seed_frac
  | Spp_gadget -> "spp"

let scenario_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "contagion" ] -> Ok (Contagion { threshold = 0.5; seed_frac = 0.01 })
  | [ "contagion"; t; f ] -> (
      match (float_of_string_opt t, float_of_string_opt f) with
      | Some t, Some f when t > 0.0 && t <= 1.0 && f >= 0.0 && f <= 1.0 ->
          Ok (Contagion { threshold = t; seed_frac = f })
      | _ ->
          Error
            "contagion:<threshold>:<seed-frac> expects threshold in (0,1] \
             and seed-frac in [0,1]")
  | [ "spp" ] -> Ok Spp_gadget
  | _ -> Error "unknown scenario (contagion[:<threshold>:<seed-frac>] | spp)"

type result = {
  seed : int;
  events : int;
  activations : int;
  deliveries : int;
  lost : int;
  duplicated : int;
  crash_windows : int;
  metric : int;
  label_hash : int;
}

type instance = {
  nodes : int;
  edges : int;
  scenario : scenario;
  topology : topology;
  desc : string;
  run : seed:int -> horizon:float -> result;
  run_poll : poll:(unit -> unit) -> seed:int -> horizon:float -> result;
}

(* Order-sensitive label fingerprint (same splitmix-style finalizer family
   as Eventsim's counter RNG): campaigns compare it across domain counts. *)
let mix63 x =
  let x = x land max_int in
  let x = (x lxor (x lsr 30)) * 0x2545F4914F6CDD1D land max_int in
  let x = (x lxor (x lsr 27)) * 0x1F123BB5159A55E5 land max_int in
  x lxor (x lsr 31)

let hash_labels codes =
  let h = ref 0x5005_1e55 in
  for e = 0 to Array.length codes - 1 do
    h := mix63 (!h + Array.unsafe_get codes e)
  done;
  !h

(* Beyond this size the kernel's per-node memo stores (a few kB each)
   dominate memory; force those nodes onto the raw tier instead. *)
let memo_cutoff = 100_000

let pack_result sim ~seed ~metric =
  let st = Eventsim.stats sim in
  {
    seed;
    events = st.Eventsim.events;
    activations = st.Eventsim.activations;
    deliveries = st.Eventsim.deliveries;
    lost = st.Eventsim.lost;
    duplicated = st.Eventsim.duplicated;
    crash_windows = st.Eventsim.crash_windows;
    metric;
    label_hash = hash_labels (Eventsim.labels sim);
  }

(* [metric_of g labels ~hit] counts nodes whose announcement (first
   out-edge's packed code) satisfies [hit] — the allocation-free form of
   [Contagion.adopters] that also serves SPP's has-a-route count. *)
let metric_of g labels ~hit =
  let n = Digraph.num_nodes g in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let oes = Digraph.out_edges g i in
    if Array.length oes > 0 && hit labels.(oes.(0)) then incr count
  done;
  !count

(* Horizon slices between deadline polls on [run_poll]; [run] goes to
   the horizon in one call. Slicing does not change the trajectory
   (parking at an intermediate horizon and resuming replays the same
   event order, see {!Eventsim.run}), so [run] and [run_poll] are
   bit-identical. *)
let deadline_slices = 8

let build scenario topology ~graph_seed ~nodes ~rate ~latency ~faults =
  let desc =
    Printf.sprintf
      "scenario=%s topology=%s graph_seed=%d nodes=%d rate=%.17g latency=%s \
       loss=%.17g dup=%.17g crash=%.17g crash_len=%.17g"
      (scenario_name scenario) (topology_name topology) graph_seed nodes rate
      (latency_name latency) faults.Eventsim.loss faults.Eventsim.dup
      faults.Eventsim.crash faults.Eventsim.crash_len
  in
  let make ~g ~p ~input ~init ~hit =
    let n = Digraph.num_nodes g in
    let max_memo_entries = if n > memo_cutoff then Some 0 else None in
    let run_sliced ~slices ~poll ~seed ~horizon =
      let sim =
        Eventsim.create ?max_memo_entries ~rate ~latency ~faults ~seed p
          ~input ~init
      in
      for k = 1 to slices - 1 do
        ignore
          (Eventsim.run sim
             ~horizon:(horizon *. float_of_int k /. float_of_int slices));
        poll ()
      done;
      ignore (Eventsim.run sim ~horizon);
      let metric = metric_of g (Eventsim.labels sim) ~hit in
      pack_result sim ~seed ~metric
    in
    {
      nodes = n;
      edges = Digraph.num_edges g;
      scenario;
      topology;
      desc;
      run = run_sliced ~slices:1 ~poll:ignore;
      run_poll = run_sliced ~slices:deadline_slices;
    }
  in
  match scenario with
  | Contagion { threshold; seed_frac } ->
      let g = graph_of topology ~seed:graph_seed ~nodes in
      let n = Digraph.num_nodes g in
      let p = Best_response.protocol (Contagion.make g ~threshold) () in
      let input = Array.make n () in
      let nseeds =
        min n (int_of_float (ceil (seed_frac *. float_of_int n)))
      in
      let init = Contagion.seeded_config p (List.init nseeds Fun.id) in
      make ~g ~p ~input ~init ~hit:(fun c -> c = 1)
  | Spp_gadget ->
      (* Disjoint tiling of the GOOD GADGET: copy c's node i is global node
         c * ng + i and its edge k is global edge c * mg + k, so per-node
         edge order matches the gadget's and the gadget's reaction applies
         verbatim to [v mod ng] with the single gadget's path space shared
         across all copies (small card — the table tier covers it). *)
      let gadget = Spp.good_gadget () in
      let pg = Spp.protocol gadget in
      let gg = pg.Protocol.graph in
      let ng = Digraph.num_nodes gg and mg = Digraph.num_edges gg in
      let copies = max 1 (nodes / ng) in
      let n = copies * ng and m = copies * mg in
      let src = Array.make m 0 and dst = Array.make m 0 in
      for c = 0 to copies - 1 do
        for k = 0 to mg - 1 do
          src.((c * mg) + k) <- (c * ng) + Digraph.src gg k;
          dst.((c * mg) + k) <- (c * ng) + Digraph.dst gg k
        done
      done;
      let g = Digraph.create_arrays ~n src dst in
      let react v x inputs = pg.Protocol.react (v mod ng) x inputs in
      let p =
        {
          Protocol.name = Printf.sprintf "spp-tiled-%d" copies;
          graph = g;
          space = pg.Protocol.space;
          react;
        }
      in
      let input = Array.make n () in
      let init = Protocol.uniform_config p [] in
      let no_route = p.Protocol.space.Label.encode [] in
      make ~g ~p ~input ~init ~hit:(fun c -> c <> no_route)

let campaign ?domains inst ~seed0 ~runs ~horizon =
  Parrun.map ?domains
    ~ctx:(fun () -> ())
    runs
    (fun () idx -> inst.run ~seed:(seed0 + idx) ~horizon)

(* ------------------------------------------------------------------ *)
(* Matrix campaigns                                                    *)
(* ------------------------------------------------------------------ *)

module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value

(* One cell per seed: trajectories are independent and a single large-n
   run is the unit of loss on a crash, so per-seed granularity is what a
   resumed campaign wants to skip. All nine fields are ints. *)
let codec : result Campaign.codec =
  {
    encode =
      (fun r ->
        Value.List
          [
            Value.Int r.seed;
            Value.Int r.events;
            Value.Int r.activations;
            Value.Int r.deliveries;
            Value.Int r.lost;
            Value.Int r.duplicated;
            Value.Int r.crash_windows;
            Value.Int r.metric;
            Value.Int r.label_hash;
          ]);
    decode =
      (function
      | Value.List
          [
            Value.Int seed;
            Value.Int events;
            Value.Int activations;
            Value.Int deliveries;
            Value.Int lost;
            Value.Int duplicated;
            Value.Int crash_windows;
            Value.Int metric;
            Value.Int label_hash;
          ] ->
          Some
            {
              seed;
              events;
              activations;
              deliveries;
              lost;
              duplicated;
              crash_windows;
              metric;
              label_hash;
            }
      | _ -> None);
  }

let cells inst ~seed0 ~runs ~horizon =
  Array.init runs (fun idx ->
      let seed = seed0 + idx in
      {
        Campaign.key =
          Printf.sprintf "sim/%s/%s/s%d"
            (scenario_name inst.scenario)
            (topology_name inst.topology)
            idx;
        config =
          Printf.sprintf "sim %s seed=%d horizon=%.17g" inst.desc seed horizon;
        run =
          (fun ~deadline ~attempt ->
            let seed = seed + (attempt * Campaign.reseed_stride) in
            inst.run_poll
              ~poll:(fun () ->
                if deadline () then raise Campaign.Deadline_exceeded)
              ~seed ~horizon);
      })

let run_matrix ?(domains = 1) ?policy inst ~seed0 ~runs ~horizon =
  let cs = cells inst ~seed0 ~runs ~horizon in
  let outcome = Campaign.run ~domains ?policy ~codec cs in
  ( Array.map (fun (r : result Campaign.record) -> r.Campaign.result)
      outcome.Campaign.records,
    outcome.Campaign.counts )
