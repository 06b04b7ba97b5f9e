module Digraph = Stateless_graph.Digraph

type 'l outcome =
  | Stabilized of { rounds : int; config : 'l Protocol.config }
  | Oscillating of { entered : int; period : int }
  | Exhausted of 'l Protocol.config

let step p ~input config ~active =
  let open Protocol in
  (* Reactions are computed against the previous configuration and written
     atomically, matching the paper's global transition function. *)
  let reactions =
    List.map (fun i -> (i, Protocol.apply p ~input config i)) active
  in
  let labels = Array.copy config.labels in
  let outputs = Array.copy config.outputs in
  List.iter
    (fun (i, (out, y)) ->
      let edges = Digraph.out_edges p.Protocol.graph i in
      Array.iteri (fun k e -> labels.(e) <- out.(k)) edges;
      outputs.(i) <- y)
    reactions;
  { labels; outputs }

let step_into p ~input config ~active ~into =
  let open Protocol in
  (* Allocation-light variant of {!step}: [into]'s arrays are overwritten in
     place. Reactions still read [config], so [into] must not share arrays
     with [config]. *)
  Array.blit config.labels 0 into.labels 0 (Array.length config.labels);
  Array.blit config.outputs 0 into.outputs 0 (Array.length config.outputs);
  List.iter
    (fun i ->
      let out, y = Protocol.apply p ~input config i in
      let edges = Digraph.out_edges p.Protocol.graph i in
      Array.iteri (fun k e -> into.labels.(e) <- out.(k)) edges;
      into.outputs.(i) <- y)
    active

module type REACTION = sig
  type ('x, 'l) t

  val step_into :
    ('x, 'l) t ->
    src:int array ->
    src_outputs:int array ->
    dst:int array ->
    dst_outputs:int array ->
    active:int list ->
    unit
end

module Coded = struct
  type ('x, 'l) t = {
    p : ('x, 'l) Protocol.t;
    input : 'x array;
    src : 'l Protocol.config;
    dst : 'l Protocol.config;
  }

  let create p ~input =
    let blank () =
      {
        Protocol.labels =
          Array.make (Protocol.num_edges p) (p.Protocol.space.Label.decode 0);
        outputs = Array.make (Protocol.num_nodes p) 0;
      }
    in
    { p; input; src = blank (); dst = blank () }

  let step_into t ~src ~src_outputs ~dst ~dst_outputs ~active =
    let space = t.p.Protocol.space and n = Array.length src_outputs in
    Array.iteri
      (fun e c -> t.src.Protocol.labels.(e) <- space.Label.decode c)
      src;
    Array.blit src_outputs 0 t.src.Protocol.outputs 0 n;
    step_into t.p ~input:t.input t.src ~active ~into:t.dst;
    Array.iteri
      (fun e l -> dst.(e) <- space.Label.encode l)
      t.dst.Protocol.labels;
    Array.blit t.dst.Protocol.outputs 0 dst_outputs 0 n
end

let run p ~input ~init ~schedule ~steps =
  if steps <= 0 then init
  else begin
    let open Protocol in
    let copy c = { labels = Array.copy c.labels; outputs = Array.copy c.outputs } in
    (* Double-buffer through [step_into] so a long run allocates two
       configurations total instead of one per step. *)
    let cur = ref (copy init) and nxt = ref (copy init) in
    for t = 0 to steps - 1 do
      step_into p ~input !cur ~active:(schedule.Schedule.active t) ~into:!nxt;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp
    done;
    !cur
  end

let trace p ~input ~init ~schedule ~steps =
  if steps <= 0 then [ init ]
  else begin
    let open Protocol in
    let copy c = { labels = Array.copy c.labels; outputs = Array.copy c.outputs } in
    (* Double-buffer through [step_into]; only the returned snapshots are
       copied out, instead of one reaction list + two arrays per step. *)
    let cur = ref (copy init) and nxt = ref (copy init) in
    let acc = ref [ init ] in
    for t = 0 to steps - 1 do
      step_into p ~input !cur ~active:(schedule.Schedule.active t) ~into:!nxt;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp;
      acc := copy !cur :: !acc
    done;
    List.rev !acc
  end

let run_until_stable p ~input ~init ~schedule ~max_steps =
  let period_opt = schedule.Schedule.period in
  let seen = Hashtbl.create 256 in
  let key0 = Protocol.config_key p init in
  let exception Cycle_found of int * int in
  let exception Quiescent of int in
  (* Deterministic dynamics: if the labeling recurs at the same schedule
     phase, the run repeats that segment forever. The segment contains a
     label change iff the labeling sequence diverges. *)
  let rec loop t config key last_change =
    if Protocol.is_stable p ~input config then
      Stabilized { rounds = t; config }
    else if t >= max_steps then Exhausted config
    else begin
      (match period_opt with
      | Some period when t mod period = 0 -> (
          match Hashtbl.find_opt seen key with
          | Some t0 ->
              if last_change > t0 then raise (Cycle_found (t0, t - t0))
              else raise (Quiescent last_change)
          | None -> Hashtbl.replace seen key t)
      | _ -> ());
      let next = step p ~input config ~active:(schedule.Schedule.active t) in
      let next_key = Protocol.config_key p next in
      let last_change =
        if String.equal next_key key then last_change else t + 1
      in
      loop (t + 1) next next_key last_change
    end
  in
  match loop 0 init key0 0 with
  | result -> result
  | exception Cycle_found (entered, period) -> Oscillating { entered; period }
  | exception Quiescent since ->
      (* The labeling sequence became constant even though some unscheduled
         reaction function is not at a fixed point; the sequence of labelings
         converges, which is the paper's notion of label convergence. *)
      let config = run p ~input ~init ~schedule ~steps:since in
      Stabilized { rounds = since; config }

let refreshed_outputs p ~input config =
  let n = Protocol.num_nodes p in
  Array.init n (fun i -> snd (Protocol.apply p ~input config i))

type 'l settled = {
  settle_time : int;
  settled_outputs : int array;
  horizon_config : 'l Protocol.config;
}

(* One certified run, traversed once. [run_until_stable] reaches a verdict,
   the trace up to the certification horizon is replayed a single time, and
   everything a caller may want is read off that trace: the output
   stabilization time, the settled output vector, and the configuration at
   the horizon (a steady state — callers that corrupt-and-remeasure reuse
   it instead of re-simulating the same trajectory with [run]). *)
let settle p ~input ~init ~schedule ~max_steps =
  match run_until_stable p ~input ~init ~schedule ~max_steps with
  | Exhausted _ -> None
  | outcome -> (
      let horizon, cycle_entry =
        match outcome with
        | Stabilized { rounds; _ } ->
            let slack = max 1 (Protocol.num_nodes p)
            and slack_period =
              match schedule.Schedule.period with Some q -> q | None -> 1
            in
            (rounds + (slack * slack_period), None)
        | Oscillating { entered; period } ->
            (entered + (2 * period), Some entered)
        | Exhausted _ -> assert false
      in
      let configs =
        Array.of_list (trace p ~input ~init ~schedule ~steps:horizon)
      in
      let horizon_config = configs.(Array.length configs - 1) in
      let settled_outputs =
        match cycle_entry with
        | None ->
            (* Labels are stable at the horizon; refresh so every node has
               reported. *)
            Some (refreshed_outputs p ~input horizon_config)
        | Some entered ->
            (* The trace covers the cycle twice; outputs must be constant
               throughout for the run to output-stabilize. *)
            let reference = configs.(entered + 1).Protocol.outputs in
            let constant = ref true in
            for t = entered + 2 to horizon do
              if
                not
                  (Array.for_all2 ( = ) reference
                     configs.(t).Protocol.outputs)
              then constant := false
            done;
            if !constant then Some (Array.copy reference) else None
      in
      match settled_outputs with
      | None -> None
      | Some settled_outputs ->
          let final = horizon_config.Protocol.outputs in
          let rec first_bad t best =
            if t < 0 then best
            else if Array.for_all2 ( = ) configs.(t).Protocol.outputs final
            then first_bad (t - 1) t
            else best
          in
          let settle_time =
            first_bad (Array.length configs - 1) (Array.length configs - 1)
          in
          Some { settle_time; settled_outputs; horizon_config })

let outputs_after_convergence p ~input ~init ~schedule ~max_steps =
  Option.map
    (fun s -> s.settled_outputs)
    (settle p ~input ~init ~schedule ~max_steps)

let history_until_verdict p ~input ~init ~schedule ~max_steps =
  match run_until_stable p ~input ~init ~schedule ~max_steps with
  | Exhausted _ -> None
  | Stabilized { rounds; _ } ->
      let slack = max 1 (Protocol.num_nodes p)
      and slack_period =
        match schedule.Schedule.period with Some q -> q | None -> 1
      in
      Some (rounds + (slack * slack_period))
  | Oscillating { entered; period } -> Some (entered + (2 * period))

let output_stabilization_time p ~input ~init ~schedule ~max_steps =
  Option.map
    (fun s -> s.settle_time)
    (settle p ~input ~init ~schedule ~max_steps)

let label_stabilization_time p ~input ~init ~schedule ~max_steps =
  match run_until_stable p ~input ~init ~schedule ~max_steps with
  | Stabilized _ ->
      let horizon =
        match history_until_verdict p ~input ~init ~schedule ~max_steps with
        | Some h -> h
        | None -> max_steps
      in
      let configs = trace p ~input ~init ~schedule ~steps:horizon in
      let keys =
        Array.of_list (List.map (fun c -> Protocol.config_key p c) configs)
      in
      let final = keys.(Array.length keys - 1) in
      let rec first_bad t best =
        if t < 0 then best
        else if String.equal keys.(t) final then first_bad (t - 1) t
        else best
      in
      Some (first_bad (Array.length keys - 1) (Array.length keys - 1))
  | Oscillating _ | Exhausted _ -> None

let synchronous_round_complexity p ~inputs ~max_steps =
  match Protocol.labelings_count p with
  | None ->
      invalid_arg
        "Engine.synchronous_round_complexity: labeling space too large"
  | Some count ->
      let schedule = Schedule.synchronous (Protocol.num_nodes p) in
      let worst = ref 0 in
      let failed = ref false in
      List.iter
        (fun input ->
          let code = ref 0 in
          while (not !failed) && !code < count do
            let init = Protocol.decode_config p !code in
            (match
               output_stabilization_time p ~input ~init ~schedule ~max_steps
             with
            | Some t -> worst := max !worst t
            | None -> failed := true);
            incr code
          done)
        inputs;
      if !failed then None else Some !worst

let sampled_round_complexity p ~inputs ~samples ~seed ~max_steps =
  let schedule = Schedule.synchronous (Protocol.num_nodes p) in
  let state = Random.State.make [| seed |] in
  let card = p.Protocol.space.Label.card in
  let m = Protocol.num_edges p in
  let worst = ref 0 in
  let failed = ref false in
  List.iter
    (fun input ->
      for _ = 1 to samples do
        if not !failed then begin
          let labels =
            Array.init m (fun _ ->
                p.Protocol.space.Label.decode (Random.State.int state card))
          in
          let init = Protocol.config_of_labels p labels in
          match
            output_stabilization_time p ~input ~init ~schedule ~max_steps
          with
          | Some t -> worst := max !worst t
          | None -> failed := true
        end
      done)
    inputs;
  if !failed then None else Some !worst
