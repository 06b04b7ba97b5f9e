let corrupt p ~seed ~fraction config =
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Fault.corrupt: fraction must be in [0, 1]";
  Fault_model.apply p ~seed (Fault_model.Uniform { fraction }) config

let corrupt_codes = Fault_model.uniform_codes

let inject p ~seed fault config = Fault_model.apply p ~seed fault config

(* Both measurements are phrased in terms of output stabilization so that
   they apply to output-stabilizing protocols whose labels never settle
   (e.g. anything clocked by the D-counter). The configuration that gets
   corrupted is the steady state [Engine.settle] certified — one traversal
   yields the stabilization time, the settled outputs and that
   configuration, so nothing is re-simulated. *)

let recovery_time p ~input ~init ~schedule ~seed ~fraction ~max_steps =
  match Engine.settle p ~input ~init ~schedule ~max_steps with
  | None -> None
  | Some healthy -> (
      let damaged = corrupt p ~seed ~fraction healthy.Engine.horizon_config in
      match Engine.settle p ~input ~init:damaged ~schedule ~max_steps with
      | Some recovered ->
          Some (healthy.Engine.settle_time, recovered.Engine.settle_time)
      | None -> None)

let recovers_to_same_outputs p ~input ~init ~schedule ~seed ~fraction
    ~max_steps =
  match Engine.settle p ~input ~init ~schedule ~max_steps with
  | None -> None
  | Some healthy -> (
      let damaged = corrupt p ~seed ~fraction healthy.Engine.horizon_config in
      match Engine.settle p ~input ~init:damaged ~schedule ~max_steps with
      | Some recovered ->
          Some
            (Array.for_all2 ( = ) healthy.Engine.settled_outputs
               recovered.Engine.settled_outputs)
      | None -> None)

type 'l adversarial = {
  adv_edges : int list;
  adv_codes : int list;
  adv_config : 'l Protocol.config;
  adv_recovery : int option;
  adv_exhaustive : bool;
}

exception Stop

(* The search proceeds in three phases whose composition is observably
   identical to the historical one-candidate-at-a-time loop, for every
   [domains] value: enumerate the first [limit] candidates in the canonical
   order (ascending edge ids, ascending replacement codes), measure them in
   enumeration-order batches fanned out over domains through the packed
   kernel, and scan the measured prefix sequentially with the original
   better-than rule. Batches stop being launched once one contains a
   non-recovering candidate — nothing can beat it, exactly the sequential
   early stop. *)
let adversarial_corruption ?(limit = 20_000) ?(domains = 1) p ~input ~schedule
    ~k ~max_steps config =
  let m = Protocol.num_edges p in
  let card = p.Protocol.space.Label.card in
  if k <= 0 || k > m then
    invalid_arg "Fault.adversarial_corruption: k must be in [1, edges]";
  if card < 2 then
    invalid_arg "Fault.adversarial_corruption: label space is a singleton";
  let encode = p.Protocol.space.Label.encode
  and decode = p.Protocol.space.Label.decode in
  let labels0 = config.Protocol.labels in
  let cands = ref [] in
  let ncands = ref 0 in
  let truncated = ref false in
  (* Enumerate all ways to pick [k] distinct edges (ascending ids) and give
     each a label different from its current one (ascending codes). *)
  let rec choose start picked edges codes =
    if picked = k then begin
      if !ncands >= limit then begin
        truncated := true;
        raise Stop
      end;
      incr ncands;
      cands := (List.rev edges, List.rev codes) :: !cands
    end
    else
      for e = start to m - (k - picked) do
        let old = encode labels0.(e) in
        for c = 0 to card - 1 do
          if c <> old then choose (e + 1) (picked + 1) (e :: edges) (c :: codes)
        done
      done
  in
  (try choose 0 0 [] [] with Stop -> ());
  let cands = Array.of_list (List.rev !cands) in
  let total = Array.length cands in
  let damaged_of idx =
    let edges, codes = cands.(idx) in
    let labels = Array.copy labels0 in
    List.iter2 (fun e c -> labels.(e) <- decode c) edges codes;
    { Protocol.labels; outputs = Array.copy config.Protocol.outputs }
  in
  let recoveries = Array.make total None in
  let batch = max 64 (domains * 16) in
  let evaluated = ref 0 in
  let hit_none = ref false in
  while (not !hit_none) && !evaluated < total do
    let lo = !evaluated in
    let hi = min total (lo + batch) in
    let res =
      Parrun.map ~domains
        ~ctx:(fun () -> Kernel.create p ~input)
        (hi - lo)
        (fun kern j ->
          Option.map
            (fun s -> s.Engine.settle_time)
            (Kernel.settle kern ~init:(damaged_of (lo + j)) ~schedule
               ~max_steps))
    in
    Array.blit res 0 recoveries lo (hi - lo);
    evaluated := hi;
    if Array.exists (fun r -> r = None) res then hit_none := true
  done;
  let best = ref None in
  let found_none = ref false in
  (try
     for idx = 0 to !evaluated - 1 do
       let recovery = recoveries.(idx) in
       let better =
         match !best with
         | None -> true
         | Some (_, r) -> (
             match (r, recovery) with
             | None, _ -> false
             | Some _, None -> true
             | Some x, Some y -> y > x)
       in
       if better then best := Some (idx, recovery);
       (* A candidate the run never recovers from cannot be beaten. *)
       if recovery = None then begin
         found_none := true;
         raise Stop
       end
     done
   with Stop -> ());
  match !best with
  | None -> assert false (* k >= 1 and card >= 2 give >= 1 candidate *)
  | Some (idx, recovery) ->
      let edges, codes = cands.(idx) in
      {
        adv_edges = edges;
        adv_codes = codes;
        adv_config = damaged_of idx;
        adv_recovery = recovery;
        (* Provably maximal when the enumeration was complete, or when a
           non-recovering candidate was found (nothing can beat it). *)
        adv_exhaustive = (not !truncated) || !found_none;
      }
