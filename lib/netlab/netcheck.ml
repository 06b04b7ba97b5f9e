(* Exhaustive certification of r-stabilization under a budgeted label
   adversary.

   The plain checker ({!Stateless_checker.Checker}) decides whether a
   protocol r-stabilizes from every initial labeling under every r-fair
   schedule. This module strengthens the adversary: between protocol
   steps it may additionally corrupt edge labels — at most [k]
   corruptions in every window of [window] steps. A corruption rewrites
   one edge to one arbitrary label, which subsumes the channel layer's
   loss (rewrite back to the stale label), duplication (rewrite to a
   previously carried label) and crash-wake relabeling (a sequence of
   single-edge rewrites); bounded delay is a composition of a loss now
   and a rewrite later, both drawn from the same budget.

   The adversary is part of the transition relation: a state of the
   plain checker's states-graph — (labeling, fairness countdown) — gains
   the adversary's remaining budget b and window phase φ, and a
   transition picks an admissible activation set, applies the protocol
   step, and then optionally (when b > 0) spends one budget unit on a
   single-edge rewrite. The budget recharges to [k] whenever the window
   wraps. This module only defines that adversary and decodes its choice
   codes into faults; exploration, SCCs, lassos and witness replay are
   the shared back end ({!Stateless_checker.Stategraph}) that the plain
   checker and the Byzantine certifier use too.

   Divergence is still {e protocol} divergence: an edge of the graph is
   marked changed only when the protocol step changed the labeling —
   adversarial rewrites never count, so a verdict of [Oscillating] means
   the protocol itself keeps writing new labels forever under some
   admissible schedule and fault pattern, and [Stabilizing] means every
   such run reaches a point after which the protocol never changes a
   label (resp. an output) again, however the adversary spends its
   budget.

   With [k = 0] the budget and phase dimensions collapse (b ≡ 0, and φ
   is not tracked at all), so the graph is literally the plain checker's
   states-graph and verdicts agree by construction — the differential
   tests and the fuzzer assert this. *)

module Protocol = Stateless_core.Protocol
module Label = Stateless_core.Label
module Stategraph = Stateless_checker.Stategraph

type fault = { edge : int; code : int }
type step = { active : int list; fault : fault option }

type witness = {
  init_code : int;
  prefix : step list;
  cycle : step list;
}

type verdict =
  | Stabilizing
  | Oscillating of witness
  | Too_large of { needed : int }

type stats = { states : int; edges : int }

let last_stats_ref : stats option ref = ref None
let last_stats () = !last_stats_ref

(* The adversary's state is [b * w_eff + phase]: remaining budget and
   window phase, [w_eff] being 1 when k = 0 so that the zero-budget graph
   coincides with the plain checker's. Edge choice codes hold the fault
   taken on the edge, [edge * card + code], or -1 for fault-free edges. *)
let explore p ~input ~r ~k ~window ~max_states =
  let n = Protocol.num_nodes p in
  Stategraph.validate ~who:"Netcheck" ~n ~r;
  if k < 0 then invalid_arg "Netcheck: budget k must be >= 0";
  if window < 1 then invalid_arg "Netcheck: window must be >= 1";
  let m = Protocol.num_edges p in
  let card = p.Protocol.space.Label.card in
  let w_eff = if k = 0 then 1 else window in
  (* weight.(e) = card^(m-1-e): edge 0 most significant. *)
  let weight = Array.init m (fun e -> Stategraph.ipow card (m - 1 - e)) in
  let successors ~mask:_ ~adv ~lab emit =
    let b = adv / w_eff and phase = adv mod w_eff in
    let phase' = (phase + 1) mod w_eff in
    let recharge = phase' = 0 in
    (* Fault-free continuation first. *)
    emit lab (((if recharge then k else b) * w_eff) + phase') (-1);
    (* Then one budgeted single-edge rewrite after the step, edge-major. *)
    if b > 0 then begin
      let spent = ((if recharge then k else b - 1) * w_eff) + phase' in
      for e = 0 to m - 1 do
        let w = weight.(e) in
        let cur = lab / w mod card in
        for c = 0 to card - 1 do
          if c <> cur then emit (lab + ((c - cur) * w)) spent ((e * card) + c)
        done
      done
    end
  in
  match
    Stategraph.explore p ~input ~r ~max_states
      {
        Stategraph.phases = Stategraph.mul_sat (k + 1) w_eff;
        init = k * w_eff;
        react = -1;
        branch = 1;
        successors;
      }
  with
  | Error _ as too_large -> too_large
  | Ok (g, _) as explored ->
      last_stats_ref :=
        Some
          { states = Stategraph.num_states g; edges = Stategraph.num_edges g };
      explored

let witness_of_lasso p g (l : Stategraph.lasso) =
  let card = p.Protocol.space.Label.card in
  let step e =
    let fid = Stategraph.choice g e in
    {
      active = Stategraph.nodes_of_mask g.Stategraph.n (Stategraph.mask g e);
      fault =
        (if fid < 0 then None
         else Some { edge = fid / card; code = fid mod card });
    }
  in
  {
    init_code = l.init_code;
    prefix = List.map step l.prefix;
    cycle = List.map step l.cycle;
  }

let check_label p ~input ~r ~k ~window ~max_states =
  match explore p ~input ~r ~k ~window ~max_states with
  | Error needed -> Too_large { needed }
  | Ok (g, _) -> (
      match Stategraph.label_lasso g (Stategraph.scc g) with
      | None -> Stabilizing
      | Some l -> Oscillating (witness_of_lasso p g l))

let check_output p ~input ~r ~k ~window ~max_states =
  match explore p ~input ~r ~k ~window ~max_states with
  | Error needed -> Too_large { needed }
  | Ok (g, cache) -> (
      match Stategraph.output_lasso g (Stategraph.scc g) cache with
      | None -> Stabilizing
      | Some l -> Oscillating (witness_of_lasso p g l))

(* Both replays play the protocol step, then the step's rewrite (if any). *)
let steps_of w =
  let step { active; fault } =
    {
      Stategraph.react = active;
      writes =
        (match fault with None -> [] | Some { edge; code } -> [ (edge, code) ]);
    }
  in
  (List.map step w.prefix, List.map step w.cycle)

let replay p ~input w =
  let prefix, cycle = steps_of w in
  Stategraph.replay p ~input ~init_code:w.init_code ~prefix ~cycle

let replay_packed p ~input w =
  let prefix, cycle = steps_of w in
  Stategraph.replay_packed p ~input ~init_code:w.init_code ~prefix ~cycle
