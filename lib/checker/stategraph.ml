(* The states-graph back end shared by the three certifiers.

   Checker, Netcheck and Byzcheck decide stabilization the same way
   (Theorem 3.1): explore the states-graph from every initialization
   vertex, split it into strongly connected components, and look inside
   them for a label-changing transition or for a node that emits two
   different outputs. Only the transition relation differs, so
   everything read off an explored graph lives here, once: Tarjan,
   intra-SCC paths, lassos, the output-conflict scan and the witness
   replay on both execution engines. The adversarial certifiers also
   share one explorer, which treats the adversary as part of the
   transition relation (see {!adversary}). *)

module Protocol = Stateless_core.Protocol
module Engine = Stateless_core.Engine
module Kernel = Stateless_core.Kernel
module Label = Stateless_core.Label

let ipow base e =
  let rec loop acc e = if e = 0 then acc else loop (acc * base) (e - 1) in
  loop 1 e

(* Saturating arithmetic for the size estimates reported by Too_large. *)
let mul_sat a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let ipow_sat base e =
  let rec loop acc e = if e = 0 then acc else loop (mul_sat acc base) (e - 1) in
  loop 1 e

let nodes_of_mask n mask =
  let rec loop i acc =
    if i < 0 then acc
    else if mask land (1 lsl i) <> 0 then loop (i - 1) (i :: acc)
    else loop (i - 1) acc
  in
  loop (n - 1) []

let validate ~who ~n ~r =
  if n > 20 then invalid_arg (who ^ ": too many nodes for subset enumeration");
  if r < 1 then invalid_arg (who ^ ": r must be >= 1")

type t = {
  n : int;
  react : int;
  lab_div : int;
  keys : int Vec.t;
  csr : Csr.t;
  parent : int Vec.t;
  choice : int Vec.t;
}

let num_states g = Vec.length g.keys
let num_edges g = Csr.num_edges g.csr
let succ g e = Csr.succ_of_word g.csr (Csr.cell g.csr e)
let mask g e = Csr.mask_of_word g.csr (Csr.cell g.csr e)
let choice g e = if Vec.length g.choice = 0 then -1 else Vec.get g.choice e

(* ------------------------------------------------------------------ *)
(* Strongly connected components                                       *)
(* ------------------------------------------------------------------ *)

(* Per-domain Tarjan scratch reused across calls, so repeated
   certifications (parameter sweeps, benchmarks) run allocation-light.
   The visit clock persists, so [index] never needs clearing: entries
   below the clock at entry are "unvisited". [on_stack] is all-zero
   between calls since every pushed vertex is popped. *)
type scratch = {
  mutable clock : int;
  mutable index : int array;
  mutable lowlink : int array;
  mutable comp : int array;
  mutable stack : int array;
  mutable call_v : int array;
  mutable call_cur : int array;
  mutable call_end : int array;
  mutable on_stack : Bytes.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        clock = 1;
        index = [||];
        lowlink = [||];
        comp = [||];
        stack = [||];
        call_v = [||];
        call_cur = [||];
        call_end = [||];
        on_stack = Bytes.empty;
      })

(* Iterative Tarjan over the CSR states-graph, roots in id order and
   children in edge order. All stacks are flat int arrays — a vertex
   enters each stack at most once, so [count] slots suffice and the
   traversal allocates nothing per edge. *)
let scc g =
  let count = num_states g in
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.index < count then begin
    (* All-zero fresh [index] reads as unvisited: the clock is >= 1. *)
    sc.index <- Array.make count 0;
    sc.lowlink <- Array.make count 0;
    sc.comp <- Array.make count 0;
    sc.stack <- Array.make count 0;
    sc.call_v <- Array.make count 0;
    sc.call_cur <- Array.make count 0;
    sc.call_end <- Array.make count 0;
    sc.on_stack <- Bytes.make count '\000'
  end;
  let base = sc.clock in
  let index = sc.index and lowlink = sc.lowlink in
  let on_stack = sc.on_stack and comp = sc.comp and stack = sc.stack in
  let sp = ref 0 in
  (* Per-frame cursor and end into the flat edge buffer — hoists the row
     bounds out of the per-edge loop. *)
  let call_v = sc.call_v and call_cur = sc.call_cur in
  let call_end = sc.call_end in
  let csp = ref 0 in
  let next_index = ref base and next_comp = ref 0 in
  let csr = g.csr in
  for root = 0 to count - 1 do
    if index.(root) < base then begin
      call_v.(0) <- root;
      call_cur.(0) <- Csr.row_start csr root;
      call_end.(0) <- Csr.row_start csr (root + 1);
      csp := 1;
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack.(!sp) <- root;
      incr sp;
      Bytes.unsafe_set on_stack root '\001';
      while !csp > 0 do
        let fr = !csp - 1 in
        let v = Array.unsafe_get call_v fr in
        let cur = Array.unsafe_get call_cur fr in
        if cur < Array.unsafe_get call_end fr then begin
          Array.unsafe_set call_cur fr (cur + 1);
          let u = Csr.succ_of_word csr (Csr.cell csr cur) in
          if Array.unsafe_get index u < base then begin
            index.(u) <- !next_index;
            lowlink.(u) <- !next_index;
            incr next_index;
            stack.(!sp) <- u;
            incr sp;
            Bytes.unsafe_set on_stack u '\001';
            call_v.(!csp) <- u;
            call_cur.(!csp) <- Csr.row_start csr u;
            call_end.(!csp) <- Csr.row_start csr (u + 1);
            incr csp
          end
          else if Bytes.unsafe_get on_stack u = '\001' then
            lowlink.(v) <- min lowlink.(v) index.(u)
        end
        else begin
          decr csp;
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let u = stack.(!sp) in
              Bytes.unsafe_set on_stack u '\000';
              comp.(u) <- !next_comp;
              if u = v then continue := false
            done;
            incr next_comp
          end;
          if !csp > 0 then begin
            let parent = call_v.(!csp - 1) in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          end
        end
      done
    end
  done;
  sc.clock <- !next_index;
  comp

(* ------------------------------------------------------------------ *)
(* Paths and lassos                                                    *)
(* ------------------------------------------------------------------ *)

(* Shortest intra-component path src -> dst, as flat edge indices. *)
let path_within_scc g (comp : int array) ~src ~dst =
  if src = dst then Some []
  else begin
    let count = num_states g in
    let pred = Array.make count (-1) in
    let pred_edge = Array.make count 0 in
    let queue = Queue.create () in
    pred.(src) <- src;
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      let j = ref (Csr.row_start g.csr v) in
      let stop = !j + Csr.degree g.csr v in
      while (not !found) && !j < stop do
        let u = succ g !j in
        if comp.(u) = comp.(src) && pred.(u) < 0 then begin
          pred.(u) <- v;
          pred_edge.(u) <- !j;
          if u = dst then found := true else Queue.add u queue
        end;
        incr j
      done
    done;
    if not !found then None
    else begin
      let rec walk v acc =
        if v = src then acc else walk pred.(v) (pred_edge.(v) :: acc)
      in
      Some (walk dst [])
    end
  end

let path_exn g comp ~src ~dst =
  match path_within_scc g comp ~src ~dst with
  | Some path -> path
  | None -> assert false (* src and dst lie in the same SCC *)

(* The edge that interned [id]: the first edge of its parent's row that
   reaches it, since any earlier one would have interned it first. *)
let tree_edge g id =
  let parent = Vec.get g.parent id in
  let rec find j = if succ g j = id then j else find (j + 1) in
  find (Csr.row_start g.csr parent)

let path_from_root g id =
  let rec walk id acc =
    if Vec.get g.parent id < 0 then (Vec.get g.keys id / g.lab_div, acc)
    else walk (Vec.get g.parent id) (tree_edge g id :: acc)
  in
  walk id []

type lasso = { init_code : int; prefix : int list; cycle : int list }

let lasso g ~entry cycle =
  let init_code, prefix = path_from_root g entry in
  { init_code; prefix; cycle }

(* The first label-changing edge (in id, then edge order) whose endpoints
   share an SCC, closed into a cycle through its source. *)
let label_lasso g (comp : int array) =
  let csr = g.csr in
  let count = num_states g in
  let found = ref (-1) and src = ref 0 in
  while !found < 0 && !src < count do
    let j = ref (Csr.row_start csr !src) in
    let stop = !j + Csr.degree csr !src in
    let cid = Array.unsafe_get comp !src in
    while !found < 0 && !j < stop do
      let w = Csr.cell csr !j in
      if
        Csr.changed_of_word w = 1
        && Array.unsafe_get comp (Csr.succ_of_word csr w) = cid
      then found := !j
      else incr j
    done;
    if !found < 0 then incr src
  done;
  if !found < 0 then None
  else
    let e = !found and v = !src in
    Some (lasso g ~entry:v (e :: path_exn g comp ~src:(succ g e) ~dst:v))

type conflict = { src0 : int; e0 : int; src1 : int; e1 : int }

(* Two distinct outputs of one node on edges of one SCC witness output
   divergence. Outputs depend only on the source labeling and the node, so
   they are read off the transition cache instead of re-evaluating
   reaction functions per edge. *)
let output_conflicts g comp cache ~stop_at_first =
  let n = g.n and csr = g.csr and count = num_states g in
  (* [scc * n + node] -> (output, edge source, edge): SCC ids are below
     [count], so the key is unique. Sized for the worst case (one entry
     per state and node), capped, to avoid rehashing in the scan. *)
  let seen : (int, int * int * int) Hashtbl.t =
    Hashtbl.create (min (count * n) (1 lsl 16))
  in
  let conflicts : (int, conflict) Hashtbl.t = Hashtbl.create 16 in
  let stop = ref false in
  let id = ref 0 in
  while (not !stop) && !id < count do
    let lab_code = Vec.unsafe_get g.keys !id / g.lab_div in
    let j = ref (Csr.row_start csr !id) in
    let row_end = !j + Csr.degree csr !id in
    let cid = comp.(!id) in
    while (not !stop) && !j < row_end do
      let w = Csr.cell csr !j in
      if comp.(Csr.succ_of_word csr w) = cid then
        List.iter
          (fun node ->
            if not (Hashtbl.mem conflicts node) then begin
              let y = Trans_cache.output cache ~lab_code ~node in
              let k = (cid * n) + node in
              match Hashtbl.find_opt seen k with
              | None -> Hashtbl.replace seen k (y, !id, !j)
              | Some (y0, src0, e0) ->
                  if y0 <> y then begin
                    Hashtbl.replace conflicts node
                      { src0; e0; src1 = !id; e1 = !j };
                    if stop_at_first then stop := true
                  end
            end)
          (nodes_of_mask n (Csr.mask_of_word csr w land g.react));
      incr j
    done;
    incr id
  done;
  conflicts

(* The cycle src0 -e0-> dst0 ~~> src1 -e1-> dst1 ~~> src0 through both
   conflicting edges (any two edges of an SCC lie on a common cycle). *)
let conflict_lasso g comp c =
  let mid = path_exn g comp ~src:(succ g c.e0) ~dst:c.src1 in
  let back = path_exn g comp ~src:(succ g c.e1) ~dst:c.src0 in
  lasso g ~entry:c.src0 ((c.e0 :: mid) @ (c.e1 :: back))

let output_lasso g comp cache =
  let conflicts = output_conflicts g comp cache ~stop_at_first:true in
  (* The conflicts all sit on the scan's last edge; the lowest node is the
     one a scan stopping at its very first conflict reports. *)
  Hashtbl.fold
    (fun node c best ->
      match best with
      | Some (b, _) when b < node -> best
      | _ -> Some (node, c))
    conflicts None
  |> Option.map (fun (_, c) -> conflict_lasso g comp c)

(* ------------------------------------------------------------------ *)
(* The adversarial explorer                                            *)
(* ------------------------------------------------------------------ *)

type adversary = {
  phases : int;
  init : int;
  react : int;
  branch : int;
  successors :
    mask:int -> adv:int -> lab:int -> (int -> int -> int -> unit) -> unit;
}

let explore p ~input ~r ~max_states adv =
  let n = Protocol.num_nodes p in
  match Protocol.labelings_count p with
  | None -> Error max_int
  | Some lab_count ->
      let cd_count = ipow r n in
      let phases = adv.phases in
      let states = mul_sat (mul_sat lab_count cd_count) phases in
      let needed = mul_sat states adv.branch in
      if needed > max_states then Error needed
      else begin
        let csr = Csr.create ~n ~capacity:(min states 65536) () in
        if states - 1 > Csr.max_succ csr then
          invalid_arg "Stategraph: state space too large for edge packing";
        let g =
          {
            n;
            react = adv.react;
            lab_div = cd_count * phases;
            keys = Vec.create ~capacity:(min states 65536) ~dummy:0 ();
            csr;
            parent = Vec.create ~dummy:(-1) ();
            choice = Vec.create ~capacity:1024 ~dummy:(-1) ();
          }
        in
        let cache =
          Trans_cache.create (Trans_cache.store ()) p ~input ~lab_count
        in
        let state_of_key = Array.make states (-1) in
        let intern key ~parent =
          let id = Array.unsafe_get state_of_key key in
          if id >= 0 then id
          else begin
            let id = Vec.length g.keys in
            Array.unsafe_set state_of_key key id;
            Vec.push g.keys key;
            Vec.push g.parent parent;
            id
          end
        in
        (* Initialization vertices: every labeling, full countdowns. *)
        for lab = 0 to lab_count - 1 do
          ignore
            (intern
               ((((lab * cd_count) + (cd_count - 1)) * phases) + adv.init)
               ~parent:(-1))
        done;
        let rpow = Array.init n (fun i -> ipow r (n - 1 - i)) in
        let sum_rpow = Array.fold_left ( + ) 0 rpow in
        let add = Array.make n 0 in
        (* The transition being expanded, read by [emit]. *)
        let src = ref 0 and cur_mask = ref 0 and changed = ref 0 in
        let cd' = ref 0 in
        let emit lab a choice =
          let succ =
            intern ((((lab * cd_count) + !cd') * phases) + a) ~parent:!src
          in
          (* The changed bit tracks only the reacting nodes' step:
             adversarial writes are not divergence. *)
          Csr.push_edge csr ~succ ~mask:!cur_mask ~changed:!changed;
          Vec.push g.choice choice
        in
        (* Ids are expanded in interning order: breadth-first. *)
        while !src < Vec.length g.keys do
          let key = Vec.get g.keys !src in
          let a = key mod phases and rest = key / phases in
          let cd = rest mod cd_count and lab = rest / cd_count in
          let forced = ref 0 in
          for i = 0 to n - 1 do
            (* digit d = countdown - 1; node i is forced-active at 1. *)
            let d = cd / rpow.(i) mod r in
            add.(i) <- (r - d) * rpow.(i);
            if d = 0 then forced := !forced lor (1 lsl i)
          done;
          let forced = !forced in
          for mask = 1 to (1 lsl n) - 1 do
            if mask land forced = forced then begin
              let packed =
                Trans_cache.step cache ~lab_code:lab ~mask:(mask land adv.react)
              in
              (* The countdown ticks for every activated node, reacting
                 or not: the schedule gave each one its turn. *)
              let sum = ref (cd - sum_rpow) in
              for i = 0 to n - 1 do
                if mask land (1 lsl i) <> 0 then sum := !sum + add.(i)
              done;
              cd' := !sum;
              cur_mask := mask;
              changed := packed land 1;
              adv.successors ~mask ~adv:a ~lab:(packed lsr 1) emit
            end
          done;
          Csr.end_row csr;
          incr src
        done;
        Ok (g, cache)
      end

(* ------------------------------------------------------------------ *)
(* Witness replay                                                      *)
(* ------------------------------------------------------------------ *)

type step = { react : int list; writes : (int * int) list }

(* A witness is genuine when its cycle returns to its starting labeling
   while the reacting nodes change a label (judged on their step alone,
   before the step's writes land) or some reacting node emits two
   distinct outputs. *)
let replay p ~input ~init_code ~prefix ~cycle =
  let decode = p.Protocol.space.Label.decode in
  let write (c : _ Protocol.config) (edge, code) =
    c.Protocol.labels.(edge) <- decode code
  in
  let apply config s =
    let next = Engine.step p ~input config ~active:s.react in
    List.iter (write next) s.writes;
    next
  in
  let at_cycle =
    List.fold_left apply (Protocol.decode_config p init_code) prefix
  in
  let start_key = Protocol.config_key p at_cycle in
  let label_changed = ref false and output_changed = ref false in
  let outputs : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let config = ref at_cycle in
  List.iter
    (fun s ->
      let before = Protocol.config_key p !config in
      List.iter
        (fun node ->
          let _, y = Protocol.apply p ~input !config node in
          match Hashtbl.find_opt outputs node with
          | None -> Hashtbl.replace outputs node y
          | Some y0 -> if y0 <> y then output_changed := true)
        s.react;
      let stepped = Engine.step p ~input !config ~active:s.react in
      if not (String.equal before (Protocol.config_key p stepped)) then
        label_changed := true;
      List.iter (write stepped) s.writes;
      config := stepped)
    cycle;
  String.equal start_key (Protocol.config_key p !config)
  && (!label_changed || !output_changed)

let replay_packed p ~input ~init_code ~prefix ~cycle =
  let n = Protocol.num_nodes p and m = Protocol.num_edges p in
  let kern = Kernel.create p ~input in
  let src = ref (Array.make m 0) and dst = ref (Array.make m 0) in
  let src_o = ref (Array.make n 0) and dst_o = ref (Array.make n 0) in
  Kernel.load kern (Protocol.decode_config p init_code) ~labels:!src
    ~outputs:!src_o;
  let label_changed = ref false and output_changed = ref false in
  let outputs : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let do_step ~judge s =
    Kernel.step_into kern ~src:!src ~src_outputs:!src_o ~dst:!dst
      ~dst_outputs:!dst_o ~active:s.react;
    if judge then begin
      if !dst <> !src then label_changed := true;
      List.iter
        (fun node ->
          let y = !dst_o.(node) in
          match Hashtbl.find_opt outputs node with
          | None -> Hashtbl.replace outputs node y
          | Some y0 -> if y0 <> y then output_changed := true)
        s.react
    end;
    List.iter (fun (edge, code) -> !dst.(edge) <- code) s.writes;
    let s = !src and so = !src_o in
    src := !dst;
    src_o := !dst_o;
    dst := s;
    dst_o := so
  in
  List.iter (do_step ~judge:false) prefix;
  let start = Array.copy !src in
  List.iter (do_step ~judge:true) cycle;
  start = !src && (!label_changed || !output_changed)
