module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Pool = Stateless_core.Pool

type witness = {
  init_code : int;
  prefix : int list list;
  cycle : int list list;
}

type verdict =
  | Stabilizing
  | Oscillating of witness
  | Too_large of { needed : int }

type stats = {
  states : int;
  full_states : int;
  edges : int;
  memo_hits : int;
  memo_misses : int;
  domains_used : int;
}

let last_stats_ref : stats option ref = ref None
let last_stats () = !last_stats_ref

let ipow = Stategraph.ipow
let nodes_of_mask = Stategraph.nodes_of_mask

(* [ilog2 v] for v a positive power of two. *)
let ilog2 v =
  let rec loop v acc = if v <= 1 then acc else loop (v lsr 1) (acc + 1) in
  loop v 0

(* The explored states-graph [g]: state ids index all vectors and edges
   live in one flat CSR buffer. State id -> key [lab_code * r^n + cd_code]
   where [cd_code] is the countdown vector in base r (digit = countdown -
   1, node 0 most significant). *)
type ('x, 'l) explored = {
  g : Stategraph.t;
  r : int;
  cd_count : int;  (* r^n *)
  pow2n : int;
  cache : ('x, 'l) Trans_cache.t;  (* for post-hoc output reads *)
  sym : Canon.t option;  (* set when exploring the symmetry quotient *)
}

(* Expand states [a, b) of [ex] into flat per-chunk buffers: for each state,
   its admissible transitions as (successor key, mask * 2 + changed) pairs in
   ascending mask order, preceded by nothing and counted in [ecnt]. Pure
   w.r.t. the shared tables ([keys] is only read below [b]), so disjoint
   ranges may run in parallel domains, each with its own memo [cache]. *)
let expand_range ex cache ~rpow ~sum_rpow ~add ~sym ~ecnt ~edata a b =
  let n = ex.g.n and r = ex.r and cd_count = ex.cd_count in
  for id = a to b - 1 do
    let key = Vec.unsafe_get ex.g.keys id in
    let lab = key / cd_count and cd = key mod cd_count in
    let forced = ref 0 in
    for i = 0 to n - 1 do
      (* digit d = countdown - 1; node i is forced-active at countdown 1. *)
      let d = cd / Array.unsafe_get rpow i mod r in
      Array.unsafe_set add i ((r - d) * Array.unsafe_get rpow i);
      if d = 0 then forced := !forced lor (1 lsl i)
    done;
    let base = cd - sum_rpow in
    let forced = !forced in
    let edge_count = ref 0 in
    for mask = 1 to ex.pow2n - 1 do
      if mask land forced = forced then begin
        let packed = Trans_cache.step cache ~lab_code:lab ~mask in
        let next_lab = packed lsr 1 in
        let cdsum = ref base in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then
            cdsum := !cdsum + Array.unsafe_get add i
        done;
        let skey = (next_lab * cd_count) + !cdsum in
        let skey =
          match sym with
          | None -> skey
          | Some (cn, sc) -> Canon.canon cn sc skey
        in
        Vec.push edata skey;
        Vec.push edata ((mask lsl 1) lor (packed land 1));
        incr edge_count
      end
    done;
    Vec.push ecnt !edge_count
  done

(* Breadth-first exploration from every initialization vertex (ℓ, rⁿ).

   The frontier of each BFS level is a contiguous id range, so levels are
   expanded range-by-range (optionally split across [domains] domains) and
   then interned by a single sequential pass in id order — state ids,
   parents and hence witnesses are identical for every domain count. *)
(* State vectors at or below this many slots are never shrunk. *)
let capacity_floor = 1 lsl 16

(* Per-domain scratch reused across explorations, so repeated [check_*]
   calls (parameter sweeps, [max_stabilizing_r], benchmarks) run
   allocation-light. Sound because no exported function retains the
   explored graph past its own call, and [Domain.DLS] isolates domains.

   Invariant between calls: [sc_set] remembers which keys it interned
   (exploration adds through it, so the record stays accurate even if a
   reaction function raises mid-call). The state vectors, the CSR
   buffers and the transition-cache store shrink when they retain more
   than 8x what the previous exploration used, as [sc_set]'s hashed table
   does (see {!Vec.recycle}, {!Csr.reset} and {!Trans_cache.create}). *)
type scratch = {
  sc_keys : int Vec.t;
  sc_parent : int Vec.t;
  sc_csr : Csr.t;
  sc_set : Stateset.t;
  sc_store : Trans_cache.store;  (* domain 0's transition cache *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        sc_keys = Vec.create ~capacity:0 ~dummy:0 ();
        sc_parent = Vec.create ~capacity:0 ~dummy:(-1) ();
        sc_csr = Csr.create ~n:1 ~capacity:0 ();
        sc_set = Stateset.create ();
        sc_store = Trans_cache.store ();
      })

let explore ?(domains = 1) ?symmetry p ~input ~r ~max_states =
  let n = Protocol.num_nodes p in
  Stategraph.validate ~who:"Checker" ~n ~r;
  if domains < 1 then invalid_arg "Checker: domains must be >= 1";
  match Protocol.labelings_count p with
  | None -> Error max_int
  | Some lab_count ->
      let cd_count = ipow r n in
      if cd_count > max_states || lab_count > max_states / cd_count then
        Error
          (if lab_count > max_int / cd_count then max_int
           else lab_count * cd_count)
      else begin
        let total = lab_count * cd_count in
        let m = Protocol.num_edges p in
        let symc =
          match symmetry with
          | None -> None
          | Some sy ->
              if Symmetry.num_nodes sy <> n || Symmetry.num_edges sy <> m then
                invalid_arg "Checker: symmetry group is for a different graph";
              if not (Symmetry.verify p ~input sy) then
                invalid_arg
                  "Checker: protocol is not equivariant under the symmetry \
                   group";
              let card = p.Protocol.space.Stateless_core.Label.card in
              Some (Canon.make sy ~card ~r)
        in
        let capacity = min total 65536 in
        let sc = Domain.DLS.get scratch_key in
        (* Forget the previous exploration's keys (the set un-marks only
           the states that run reached, or switches to hashing when the
           universe outgrows the direct-map budget). *)
        Stateset.reset sc.sc_set ~universe:total;
        Vec.recycle sc.sc_keys ~floor:capacity_floor;
        Vec.recycle sc.sc_parent ~floor:capacity_floor;
        Vec.reserve sc.sc_keys capacity;
        Vec.reserve sc.sc_parent capacity;
        Csr.reset sc.sc_csr ~n;
        let keys = sc.sc_keys and parents = sc.sc_parent and csr = sc.sc_csr in
        let ex =
          {
            g =
              {
                Stategraph.n;
                react = -1;
                lab_div = cd_count;
                keys;
                csr;
                parent = parents;
                choice = Vec.create ~capacity:0 ~dummy:(-1) ();
              };
            r;
            cd_count;
            pow2n = 1 lsl n;
            cache = Trans_cache.create sc.sc_store p ~input ~lab_count;
            sym = symc;
          }
        in
        (* One-time overflow check: every interned id is < total, so edge
           words can be pushed unchecked below. *)
        if total - 1 > Csr.max_succ csr then
          invalid_arg "Checker: state space too large for edge packing";
        let rpow = Array.init n (fun i -> ipow r (n - 1 - i)) in
        let sum_rpow = Array.fold_left ( + ) 0 rpow in
        (* Key -> id interning: a direct-mapped array when [total] fits the
           budget (one load per probe, hot loops read [direct] in place), an
           open-addressing table keyed by the packed state codes beyond. *)
        let set = sc.sc_set in
        let direct = Stateset.direct set in
        let use_direct = Array.length direct > 0 in
        (* With a symmetry group, [full] accumulates the orbit sizes of the
           interned representatives — the size of the unreduced reachable
           graph the quotient stands for. *)
        let full = ref 0 in
        (* Per-domain canonicalization scratch. *)
        let sbufs =
          match symc with
          | None -> [||]
          | Some cn -> Array.init domains (fun _ -> Canon.scratch cn)
        in
        let intern key ~parent =
          let id =
            if use_direct then Array.unsafe_get direct key
            else Stateset.find set key
          in
          if id >= 0 then id
          else begin
            let id = Vec.length keys in
            Stateset.add set ~key ~id;
            Vec.push keys key;
            Vec.push parents parent;
            (match symc with
            | None -> ()
            | Some cn -> full := !full + Canon.orbit_size cn sbufs.(0) key);
            id
          end
        in
        (* Initialization vertices: countdown digits all r - 1. *)
        (match symc with
        | None ->
            for lab_code = 0 to lab_count - 1 do
              ignore
                (intern ((lab_code * cd_count) + (cd_count - 1)) ~parent:(-1))
            done
        | Some cn ->
            Canon.iter_initial cn sbufs.(0) ~lab_count (fun key ->
                ignore (intern key ~parent:(-1))));
        (* The per-domain worker state only exists when parallel expansion
           is possible; the sequential path runs fused and buffer-free. *)
        let caches =
          Array.init domains (fun c ->
              if c = 0 then ex.cache
              else
                Trans_cache.create (Trans_cache.store ()) p ~input ~lab_count)
        in
        let adds = Array.init domains (fun _ -> Array.make n 0) in
        let ecnts =
          Array.init
            (if domains > 1 then domains else 0)
            (fun _ -> Vec.create ~capacity:256 ~dummy:0 ())
        and edatas =
          Array.init
            (if domains > 1 then domains else 0)
            (fun _ -> Vec.create ~capacity:1024 ~dummy:0 ())
        in
        let hits = ref 0 and misses = ref 0 in
        let lo = ref 0 in
        while !lo < Vec.length keys do
          let hi = Vec.length keys in
          let count = hi - !lo in
          let nchunks =
            if domains > 1 && count >= 4 * domains && not (Pool.in_worker ())
            then domains
            else 1
          in
          if nchunks = 1 then begin
            (* Sequential fast path: expand and intern in one fused pass,
               with no intermediate edge buffers. *)
            let cache = caches.(0) and add = adds.(0) in
            let pow2n = ex.pow2n in
            (* When r is a power of two the countdown digits are bit
               fields, so the prelude runs on shifts instead of
               divisions. *)
            let rbits = if r land (r - 1) = 0 then ilog2 r else -1 in
            (* msum.(mask) will hold the successor countdown code under
               activation set [mask]; ctz.(1 lsl i) = i. *)
            let msum = Array.make pow2n 0 in
            let ctz = Array.make pow2n 0 in
            for i = 0 to n - 1 do
              ctz.(1 lsl i) <- i
            done;
            for id = !lo to hi - 1 do
              let key = Vec.unsafe_get keys id in
              let lab = key / cd_count and cd = key mod cd_count in
              let forced = ref 0 in
              if rbits >= 0 then
                for i = 0 to n - 1 do
                  let d = (cd lsr ((n - 1 - i) * rbits)) land (r - 1) in
                  Array.unsafe_set add i ((r - d) * Array.unsafe_get rpow i);
                  if d = 0 then forced := !forced lor (1 lsl i)
                done
              else
                for i = 0 to n - 1 do
                  let d = cd / Array.unsafe_get rpow i mod r in
                  Array.unsafe_set add i ((r - d) * Array.unsafe_get rpow i);
                  if d = 0 then forced := !forced lor (1 lsl i)
                done;
              (* Subset-sum DP over the lowest set bit: each mask's countdown
                 code costs two loads and an add instead of an n-bit scan. *)
              Array.unsafe_set msum 0 (cd - sum_rpow);
              for mask = 1 to pow2n - 1 do
                let low = mask land -mask in
                Array.unsafe_set msum mask
                  (Array.unsafe_get msum (mask lxor low)
                  + Array.unsafe_get add (Array.unsafe_get ctz low))
              done;
              let forced = !forced in
              let blk, off = Trans_cache.block cache lab in
              let slotb = off + (2 * n) in
              Csr.reserve_edges csr (pow2n - 1);
              for mask = 1 to pow2n - 1 do
                if mask land forced = forced then begin
                  (* [Trans_cache.step_in] and [intern], hand-inlined: this
                     loop body runs once per states-graph edge. *)
                  let slot = slotb + mask in
                  let cached = Array.unsafe_get blk slot in
                  let packed =
                    if cached >= 0 then begin
                      incr hits;
                      cached
                    end
                    else begin
                      incr misses;
                      let delta = ref 0 in
                      for i = 0 to n - 1 do
                        if mask land (1 lsl i) <> 0 then
                          delta := !delta + Array.unsafe_get blk (off + i)
                      done;
                      let packed =
                        ((lab + !delta) * 2) lor (if !delta <> 0 then 1 else 0)
                      in
                      Array.unsafe_set blk slot packed;
                      packed
                    end
                  in
                  let skey =
                    ((packed lsr 1) * cd_count) + Array.unsafe_get msum mask
                  in
                  let skey =
                    match symc with
                    | None -> skey
                    | Some cn -> Canon.canon cn sbufs.(0) skey
                  in
                  let sid =
                    if use_direct then Array.unsafe_get direct skey
                    else Stateset.find set skey
                  in
                  let succ =
                    if sid >= 0 then sid
                    else begin
                      let sid = Vec.length keys in
                      Stateset.add set ~key:skey ~id:sid;
                      Vec.push keys skey;
                      Vec.push parents id;
                      (match symc with
                      | None -> ()
                      | Some cn ->
                          full := !full + Canon.orbit_size cn sbufs.(0) skey);
                      sid
                    end
                  in
                  Csr.unsafe_push_edge csr ~succ ~mask ~changed:(packed land 1)
                end
              done;
              Csr.end_row csr
            done
          end
          else begin
            let bound c = !lo + (count * c / nchunks) in
            for c = 0 to nchunks - 1 do
              Vec.clear ecnts.(c);
              Vec.clear edatas.(c)
            done;
            (* One chunk per domain through the persistent pool. Worker
               state is indexed by chunk, not slot: any pool domain may
               claim any chunk, and a chunk is claimed exactly once. *)
            Pool.run ~domains:nchunks ~nchunks (fun ~slot:_ c ->
                expand_range ex caches.(c) ~rpow ~sum_rpow ~add:adds.(c)
                  ~sym:(Option.map (fun cn -> (cn, sbufs.(c))) symc)
                  ~ecnt:ecnts.(c) ~edata:edatas.(c) (bound c) (bound (c + 1)));
            (* Sequential interning pass, in expanding-state order. *)
            let id = ref !lo in
            for c = 0 to nchunks - 1 do
              let ecnt = ecnts.(c) and edata = edatas.(c) in
              let pos = ref 0 in
              for s = 0 to Vec.length ecnt - 1 do
                for _k = 1 to Vec.unsafe_get ecnt s do
                  let key = Vec.unsafe_get edata !pos
                  and mc = Vec.unsafe_get edata (!pos + 1) in
                  pos := !pos + 2;
                  let succ = intern key ~parent:!id in
                  Csr.push_edge csr ~succ ~mask:(mc lsr 1) ~changed:(mc land 1)
                done;
                Csr.end_row csr;
                incr id
              done
            done
          end;
          lo := hi
        done;
        (* Flush the fused loop's batched memo counters. *)
        let c0 = caches.(0) in
        Trans_cache.add_hits c0 !hits;
        Trans_cache.add_misses c0 !misses;
        last_stats_ref :=
          Some
            {
              states = Vec.length keys;
              full_states =
                (match symc with None -> Vec.length keys | Some _ -> !full);
              edges = Csr.num_edges csr;
              memo_hits =
                Array.fold_left (fun a c -> a + Trans_cache.hits c) 0 caches;
              memo_misses =
                Array.fold_left (fun a c -> a + Trans_cache.misses c) 0 caches;
              domains_used = domains;
            };
        Ok ex
      end

let masks_to_sets n masks = List.map (nodes_of_mask n) masks

let witness_of_lasso (g : Stategraph.t) (l : Stategraph.lasso) =
  let sets = List.map (fun e -> nodes_of_mask g.n (Stategraph.mask g e)) in
  { init_code = l.init_code; prefix = sets l.prefix; cycle = sets l.cycle }

(* Lift a quotient-graph witness to a concrete run (symmetry mode).

   Invariant along the walk: the canonical form of the tracked real state
   is the quotient state the Q-path is at (true at the root, which is
   interned canonically, hence a genuine initial state). At each step, pick
   a group element [g] mapping the real state onto its canonical form; real
   node [j] occupies position [g j] of the canonical state, so it is
   activated iff the Q-mask activates [g j]. Equivariance maps forced sets
   to forced sets (lifted masks stay admissible) and runs to runs (the
   invariant propagates). The Q-cycle is traversed repeatedly until the
   real walk revisits an entry state: entries live in the finite orbit of
   the Q-entry and the walk is deterministic, so it closes within
   orbit-size traversals. Every traversal crosses the lifted image of the
   Q-cycle's label-changing edge — the changed bit is G-invariant — so the
   closed real loop replays as a genuine oscillation. *)
let make_witness_sym ex cn (l : Stategraph.lasso) =
  let n = ex.g.n and r = ex.r and cd_count = ex.cd_count in
  let sc = Canon.scratch cn in
  let nps = Symmetry.node_perms (Canon.group cn) in
  let rpow = Array.init n (fun i -> ipow r (n - 1 - i)) in
  (* A group element mapping real state [key] onto its canonical form. *)
  let g_star key = Canon.to_canon cn sc key in
  (* Lift one Q-step taken at [canon key] with [qmask]: the real mask, and
     the real successor state. *)
  let step_lift key qmask =
    let np = nps.(g_star key) in
    let rmask = ref 0 in
    for j = 0 to n - 1 do
      if qmask land (1 lsl np.(j)) <> 0 then rmask := !rmask lor (1 lsl j)
    done;
    let rmask = !rmask in
    let lab = key / cd_count and cd = key mod cd_count in
    let packed = Trans_cache.step ex.cache ~lab_code:lab ~mask:rmask in
    let cdsum = ref 0 in
    for i = 0 to n - 1 do
      let d = cd / rpow.(i) mod r in
      let d' = if rmask land (1 lsl i) <> 0 then r - 1 else d - 1 in
      cdsum := !cdsum + (d' * rpow.(i))
    done;
    (rmask, ((packed lsr 1) * cd_count) + !cdsum)
  in
  let play key masks =
    let key, rev =
      List.fold_left
        (fun (key, acc) qmask ->
          let rmask, key' = step_lift key qmask in
          (key', rmask :: acc))
        (key, []) masks
    in
    (key, List.rev rev)
  in
  let masks = List.map (Stategraph.mask ex.g) in
  let cycle_masks = masks l.cycle in
  let start = (l.init_code * cd_count) + (cd_count - 1) in
  let entry0, prefix_real = play start (masks l.prefix) in
  let rec close seen segs idx key =
    match List.assoc_opt key seen with
    | Some k ->
        (* Traversals before the revisited entry extend the prefix; the
           rest close a real cycle through that entry. *)
        let segs = List.rev segs in
        let pre = List.filteri (fun i _ -> i < k) segs in
        let cyc = List.filteri (fun i _ -> i >= k) segs in
        (List.concat pre, List.concat cyc)
    | None ->
        let key', ms = play key cycle_masks in
        close ((key, idx) :: seen) (ms :: segs) (idx + 1) key'
  in
  let prefix_ext, cycle_real = close [] [] 0 entry0 in
  {
    init_code = l.init_code;
    prefix = masks_to_sets n (prefix_real @ prefix_ext);
    cycle = masks_to_sets n cycle_real;
  }

let check_label ?domains ?symmetry p ~input ~r ~max_states =
  match explore ?domains ?symmetry p ~input ~r ~max_states with
  | Error needed -> Too_large { needed }
  | Ok ex -> (
      match Stategraph.label_lasso ex.g (Stategraph.scc ex.g) with
      | None -> Stabilizing
      | Some l ->
          Oscillating
            (match ex.sym with
            | None -> witness_of_lasso ex.g l
            | Some cn -> make_witness_sym ex cn l))

let check_output ?domains p ~input ~r ~max_states =
  match explore ?domains p ~input ~r ~max_states with
  | Error needed -> Too_large { needed }
  | Ok ex -> (
      match Stategraph.output_lasso ex.g (Stategraph.scc ex.g) ex.cache with
      | None -> Stabilizing
      | Some l -> Oscillating (witness_of_lasso ex.g l))

let replay p ~input w =
  let steps =
    List.map (fun active -> { Stategraph.react = active; writes = [] })
  in
  Stategraph.replay p ~input ~init_code:w.init_code ~prefix:(steps w.prefix)
    ~cycle:(steps w.cycle)

let max_stabilizing_r ?domains ?symmetry p ~input ~r_limit ~max_states =
  let rec loop r =
    if r > r_limit then Some r_limit
    else
      match check_label ?domains ?symmetry p ~input ~r ~max_states with
      | Stabilizing -> loop (r + 1)
      | Oscillating _ -> Some (r - 1)
      | Too_large _ -> None
  in
  loop 1

(* ------------------------------------------------------------------ *)
(* Worst-case recovery                                                 *)
(* ------------------------------------------------------------------ *)

type recovery =
  | Worst_recovery of { steps : int; witness_code : int }
  | Never_settles of { init_code : int }
  | Recovery_too_large of { needed : int }

(* A transient fault can leave the system in ANY labeling, so worst-case
   recovery is the maximum synchronous output-stabilization time over all
   |Σ|^|E| labelings. Under the synchronous schedule the dynamics is a
   functional graph on labelings: σ(ℓ) is the full-mask transition and y(ℓ)
   the output vector every node writes when reacting at ℓ — both memoized
   per labeling by {!Trans_cache}, so each labeling's reaction functions are
   evaluated once even though it appears on many trajectories.

   Every trajectory eventually enters a cycle. If some node's output varies
   around a reachable cycle, runs through it never output-stabilize
   ([Never_settles]). Otherwise let Y be the cycle's constant output vector
   and f(ℓ) the earliest index from which the sequence y(ℓ), y(σℓ), ... is
   constantly Y; f satisfies f(ℓ) = 0 when y(ℓ) = Y and f(σℓ) = 0, else
   f(σℓ) + 1, and is computed by one backward propagation per trajectory.
   The engine measures stabilization on the stored-output trace whose step-0
   entry is the all-zero vector [Protocol.decode_config] installs, so the
   per-labeling stabilization time is 0 when f(ℓ) = 0 and Y = 0, and
   f(ℓ) + 1 otherwise — exactly what [Engine.output_stabilization_time]
   reports, giving the simulation harness a differential oracle. *)
(* [domains] splits the start-labeling range into contiguous chunks, each
   swept by its own domain with a private {!Trans_cache} and propagation
   arrays. Every per-labeling quantity below (settled-or-not, stabilization
   steps) is a function of the dynamics alone — the cycle representative a
   sweep picks depends on where it entered the cycle, but only its output
   vector is ever consulted — so chunk results are independent of traversal
   order and the in-order merge reproduces the sequential scan exactly:
   the same verdict, steps, witness and diverging code for every domain
   count. *)
let worst_case_recovery ?(domains = 1) p ~input ~max_states =
  let n = Protocol.num_nodes p in
  match Protocol.labelings_count p with
  | None -> Recovery_too_large { needed = max_int }
  | Some count when count > max_states -> Recovery_too_large { needed = count }
  | Some count ->
      let sweep lo hi =
      let cache =
        Trans_cache.create (Trans_cache.store ()) p ~input ~lab_count:count
      in
      let full_mask = (1 lsl n) - 1 in
      let succ = Array.make count (-1) in
      let succ_of l =
        if succ.(l) >= 0 then succ.(l)
        else begin
          let s = Trans_cache.step cache ~lab_code:l ~mask:full_mask lsr 1 in
          succ.(l) <- s;
          s
        end
      in
      let y_equal a b =
        let rec go i =
          i >= n
          || Trans_cache.output cache ~lab_code:a ~node:i
             = Trans_cache.output cache ~lab_code:b ~node:i
             && go (i + 1)
        in
        go 0
      in
      let y_zero a =
        let rec go i =
          i >= n
          || (Trans_cache.output cache ~lab_code:a ~node:i = 0 && go (i + 1))
        in
        go 0
      in
      (* status: 0 unvisited, 1 on the current trajectory, 2 done.
         For done labelings: f.(l) as above and yrep.(l) a labeling whose
         immediate outputs equal the settled vector Y, or -1 when the
         trajectory's outputs never settle. *)
      let status = Bytes.make count '\000' in
      let f = Array.make count 0 in
      let yrep = Array.make count (-1) in
      let process start =
        if Bytes.get status start = '\000' then begin
          let path = ref [] in
          let l = ref start in
          while Bytes.get status !l = '\000' do
            Bytes.set status !l '\001';
            path := !l :: !path;
            l := succ_of !l
          done;
          (* [!path] holds the walked prefix, deepest labeling first. *)
          if Bytes.get status !l = '\001' then begin
            (* Fresh cycle: close it, then propagate along the prefix. *)
            let entry = !l in
            let rec split cyc = function
              | [] -> assert false
              | x :: rest ->
                  if x = entry then (x :: cyc, rest) else split (x :: cyc) rest
            in
            let cycle, prefix = split [] !path in
            let constant = List.for_all (fun c -> y_equal c entry) cycle in
            List.iter
              (fun c ->
                Bytes.set status c '\002';
                if constant then begin
                  f.(c) <- 0;
                  yrep.(c) <- entry
                end
                else yrep.(c) <- -1)
              cycle;
            path := prefix
          end;
          List.iter
            (fun x ->
              let s = succ_of x in
              (if yrep.(s) < 0 then yrep.(x) <- -1
               else begin
                 yrep.(x) <- yrep.(s);
                 f.(x) <-
                   (if f.(s) = 0 && y_equal x yrep.(s) then 0 else f.(s) + 1)
               end);
              Bytes.set status x '\002')
            !path
        end
      in
      let worst = ref (-1) and witness = ref 0 and diverging = ref (-1) in
      let l = ref lo in
      while !diverging < 0 && !l < hi do
        process !l;
        (if yrep.(!l) < 0 then diverging := !l
         else
           let steps =
             if f.(!l) = 0 && y_zero yrep.(!l) then 0 else f.(!l) + 1
           in
           if steps > !worst then begin
             worst := steps;
             witness := !l
           end);
        incr l
      done;
      (!worst, !witness, !diverging)
      in
      let nchunks = if domains > 1 && count >= 2 * domains then domains else 1 in
      let chunks =
        if nchunks = 1 then [| sweep 0 count |]
        else
          Stateless_core.Parrun.map ~domains:nchunks
            ~ctx:(fun () -> ())
            nchunks
            (fun () c -> sweep (count * c / nchunks) (count * (c + 1) / nchunks))
      in
      (* In-order merge: the first diverging start wins (chunks are ascending
         ranges, and each stops at its first diverging labeling); otherwise
         the strict [>] keeps the earliest labeling attaining the maximum,
         exactly as the sequential scan would. *)
      let rec merge i worst witness =
        if i >= Array.length chunks then
          Worst_recovery { steps = worst; witness_code = witness }
        else
          let w, wit, div = chunks.(i) in
          if div >= 0 then Never_settles { init_code = div }
          else if w > worst then merge (i + 1) w wit
          else merge (i + 1) worst witness
      in
      merge 0 (-1) 0

(* ------------------------------------------------------------------ *)
(* Reference implementation                                            *)
(* ------------------------------------------------------------------ *)

(* The seed checker, kept verbatim as an independent oracle: it re-derives
   every transition through [Engine.step] and stores per-state boxed edge
   arrays, sharing no exploration code with the memoized/CSR path above.
   Exploration order is identical, so verdicts — including witnesses — must
   match exactly; the differential tests in [test_checker.ml] assert this. *)
module Naive = struct
  type nexplored = {
    n : int;
    r : int;
    state_of_key : (int, int) Hashtbl.t;
    keys : int Vec.t;  (* id -> lab_code * r^n + cd_code *)
    edges : int array Vec.t;  (* id -> flattened (succ, mask, changed) *)
    parent : int Vec.t;
    parent_mask : int Vec.t;
  }

  let decode_state ex key =
    let cd_count = ipow ex.r ex.n in
    let lab_code = key / cd_count and cd_code = key mod cd_count in
    let countdown = Array.make ex.n 0 in
    let rest = ref cd_code in
    for i = ex.n - 1 downto 0 do
      countdown.(i) <- (!rest mod ex.r) + 1;
      rest := !rest / ex.r
    done;
    (lab_code, countdown)

  let encode_state ex lab_code countdown =
    let code = ref lab_code in
    for i = 0 to ex.n - 1 do
      code := (!code * ex.r) + (countdown.(i) - 1)
    done;
    !code

  let explore p ~input ~r ~max_states =
    let n = Protocol.num_nodes p in
    Stategraph.validate ~who:"Checker" ~n ~r;
    match Protocol.labelings_count p with
    | None -> Error max_int
    | Some lab_count ->
        let cd_count = ipow r n in
        if cd_count > max_states || lab_count > max_states / cd_count then
          Error
            (if lab_count > max_int / cd_count then max_int
             else lab_count * cd_count)
        else begin
          let ex =
            {
              n;
              r;
              state_of_key = Hashtbl.create (4 * lab_count);
              keys = Vec.create ~dummy:0 ();
              edges = Vec.create ~dummy:[||] ();
              parent = Vec.create ~dummy:(-1) ();
              parent_mask = Vec.create ~dummy:0 ();
            }
          in
          let queue = Queue.create () in
          let intern key ~parent ~mask =
            match Hashtbl.find_opt ex.state_of_key key with
            | Some id -> id
            | None ->
                let id = Vec.length ex.keys in
                Hashtbl.replace ex.state_of_key key id;
                Vec.push ex.keys key;
                Vec.push ex.edges [||];
                Vec.push ex.parent parent;
                Vec.push ex.parent_mask mask;
                Queue.add id queue;
                id
          in
          let full = Array.make n r in
          for lab_code = 0 to lab_count - 1 do
            ignore (intern (encode_state ex lab_code full) ~parent:(-1) ~mask:0)
          done;
          while not (Queue.is_empty queue) do
            let id = Queue.pop queue in
            let lab_code, countdown = decode_state ex (Vec.get ex.keys id) in
            let config = Protocol.decode_config p lab_code in
            let forced = ref 0 in
            for i = 0 to n - 1 do
              if countdown.(i) = 1 then forced := !forced lor (1 lsl i)
            done;
            let out = ref [] in
            for mask = 1 to (1 lsl n) - 1 do
              if mask land !forced = !forced then begin
                let active = nodes_of_mask n mask in
                let next = Engine.step p ~input config ~active in
                let next_lab = Protocol.encode_config p next in
                let next_cd =
                  Array.init n (fun i ->
                      if mask land (1 lsl i) <> 0 then r else countdown.(i) - 1)
                in
                let key = encode_state ex next_lab next_cd in
                let succ = intern key ~parent:id ~mask in
                let changed = if next_lab <> lab_code then 1 else 0 in
                out := changed :: mask :: succ :: !out
              end
            done;
            Vec.set ex.edges id (Array.of_list (List.rev !out))
          done;
          Ok ex
        end

  let scc_of_explored ex =
    let count = Vec.length ex.keys in
    let index = Array.make count (-1) in
    let lowlink = Array.make count 0 in
    let on_stack = Array.make count false in
    let comp = Array.make count (-1) in
    let stack = Stack.create () in
    let next_index = ref 0 and next_comp = ref 0 in
    let call = Stack.create () in
    let succ_at id k = (Vec.get ex.edges id).(3 * k) in
    let degree id = Array.length (Vec.get ex.edges id) / 3 in
    for root = 0 to count - 1 do
      if index.(root) < 0 then begin
        Stack.push (root, 0) call;
        index.(root) <- !next_index;
        lowlink.(root) <- !next_index;
        incr next_index;
        Stack.push root stack;
        on_stack.(root) <- true;
        while not (Stack.is_empty call) do
          let v, child = Stack.pop call in
          if child < degree v then begin
            Stack.push (v, child + 1) call;
            let u = succ_at v child in
            if index.(u) < 0 then begin
              index.(u) <- !next_index;
              lowlink.(u) <- !next_index;
              incr next_index;
              Stack.push u stack;
              on_stack.(u) <- true;
              Stack.push (u, 0) call
            end
            else if on_stack.(u) then lowlink.(v) <- min lowlink.(v) index.(u)
          end
          else begin
            if lowlink.(v) = index.(v) then begin
              let continue = ref true in
              while !continue do
                let u = Stack.pop stack in
                on_stack.(u) <- false;
                comp.(u) <- !next_comp;
                if u = v then continue := false
              done;
              incr next_comp
            end;
            if not (Stack.is_empty call) then begin
              let parent, _ = Stack.top call in
              lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            end
          end
        done
      end
    done;
    comp

  let path_within_scc ex comp ~src ~dst =
    if src = dst then Some []
    else begin
      let count = Vec.length ex.keys in
      let pred = Array.make count (-1) in
      let pred_mask = Array.make count 0 in
      let queue = Queue.create () in
      pred.(src) <- src;
      Queue.add src queue;
      let found = ref false in
      while (not !found) && not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        let edges = Vec.get ex.edges v in
        let k = ref 0 in
        while (not !found) && !k < Array.length edges / 3 do
          let u = edges.(3 * !k) and mask = edges.((3 * !k) + 1) in
          if comp.(u) = comp.(src) && pred.(u) < 0 then begin
            pred.(u) <- v;
            pred_mask.(u) <- mask;
            if u = dst then found := true else Queue.add u queue
          end;
          incr k
        done
      done;
      if not !found then None
      else begin
        let rec walk v acc =
          if v = src then acc else walk pred.(v) (pred_mask.(v) :: acc)
        in
        Some (walk dst [])
      end
    end

  let path_from_root ex id =
    let rec walk id acc =
      if Vec.get ex.parent id < 0 then (id, acc)
      else walk (Vec.get ex.parent id) (Vec.get ex.parent_mask id :: acc)
    in
    let root, masks = walk id [] in
    let lab_code, _ = decode_state ex (Vec.get ex.keys root) in
    (lab_code, masks)

  let make_witness ex ~cycle_entry ~cycle_masks =
    let init_code, prefix_masks = path_from_root ex cycle_entry in
    {
      init_code;
      prefix = masks_to_sets ex.n prefix_masks;
      cycle = masks_to_sets ex.n cycle_masks;
    }

  let check_label p ~input ~r ~max_states =
    match explore p ~input ~r ~max_states with
    | Error needed -> Too_large { needed }
    | Ok ex -> (
        let comp = scc_of_explored ex in
        let found = ref None in
        let count = Vec.length ex.keys in
        let id = ref 0 in
        while !found = None && !id < count do
          let edges = Vec.get ex.edges !id in
          let k = ref 0 in
          while !found = None && !k < Array.length edges / 3 do
            let u = edges.(3 * !k)
            and mask = edges.((3 * !k) + 1)
            and changed = edges.((3 * !k) + 2) in
            if changed = 1 && comp.(u) = comp.(!id) then
              found := Some (!id, u, mask);
            incr k
          done;
          incr id
        done;
        match !found with
        | None -> Stabilizing
        | Some (v, u, mask) -> (
            match path_within_scc ex comp ~src:u ~dst:v with
            | None -> assert false
            | Some back ->
                Oscillating
                  (make_witness ex ~cycle_entry:v ~cycle_masks:(mask :: back))))

  let check_output p ~input ~r ~max_states =
    match explore p ~input ~r ~max_states with
    | Error needed -> Too_large { needed }
    | Ok ex -> (
        let comp = scc_of_explored ex in
        let count = Vec.length ex.keys in
        (* Packed [scc * n + node] keys and worst-case pre-sizing, as in
           the fast checker's twin table ({!Stategraph.output_conflicts}). *)
        let seen : (int, int * (int * int)) Hashtbl.t =
          Hashtbl.create (min (count * ex.n) (1 lsl 16))
        in
        let conflict = ref None in
        let id = ref 0 in
        while !conflict = None && !id < count do
          let lab_code, _ = decode_state ex (Vec.get ex.keys !id) in
          let config = Protocol.decode_config p lab_code in
          let edges = Vec.get ex.edges !id in
          let k = ref 0 in
          while !conflict = None && !k < Array.length edges / 3 do
            let u = edges.(3 * !k) and mask = edges.((3 * !k) + 1) in
            if comp.(u) = comp.(!id) then
              List.iter
                (fun node ->
                  if !conflict = None then begin
                    let _, y = Protocol.apply p ~input config node in
                    let key = (comp.(!id) * ex.n) + node in
                    match Hashtbl.find_opt seen key with
                    | None -> Hashtbl.replace seen key (y, (!id, mask))
                    | Some (y0, (src0, mask0)) ->
                        if y0 <> y then
                          conflict := Some ((src0, mask0), (!id, mask), u)
                  end)
                (nodes_of_mask ex.n mask);
            incr k
          done;
          incr id
        done;
        match !conflict with
        | None -> Stabilizing
        | Some ((src0, mask0), (src1, mask1), dst1) -> (
            let dst0 =
              let edges = Vec.get ex.edges src0 in
              let rec find k =
                if
                  edges.((3 * k) + 1) = mask0
                  && comp.(edges.(3 * k)) = comp.(src0)
                then edges.(3 * k)
                else find (k + 1)
              in
              find 0
            in
            match
              ( path_within_scc ex comp ~src:dst0 ~dst:src1,
                path_within_scc ex comp ~src:dst1 ~dst:src0 )
            with
            | Some mid, Some back ->
                let cycle_masks = (mask0 :: mid) @ (mask1 :: back) in
                Oscillating (make_witness ex ~cycle_entry:src0 ~cycle_masks)
            | _ -> assert false))
end
