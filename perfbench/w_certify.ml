(* certify-clique: Checker.check_label on Example 1 at domains 1 — the
   paper's decision procedure (the states-graph of Thm. 3.1), and the only
   workload that runs Checker, Symmetry, Stateset and Trans_cache. The
   small K4 instances expose per-call fixed cost (a symmetric check is
   mostly Symmetry.verify); k5_r2_sym exposes exploration throughput.
   Seed-free: the workload seed is recorded but changes nothing. CLI twin:
   the matching [check] invocations. Throughput unit: certified
   full_states/s. *)

open Stateless_core
module Checker = Stateless_checker.Checker
module Symmetry = Stateless_checker.Symmetry

(* The budget counts the unreduced space, so k5_r2_sym needs >= 2^25. *)
let budget = 33_554_432

type inst = { name : string; n : int; r : int; sym : bool }

(* The same in smoke mode: k5_r2_sym takes about two seconds. *)
let instances =
  [
    { name = "k4_r2"; n = 4; r = 2; sym = false };
    { name = "k4_r3"; n = 4; r = 3; sym = false };
    { name = "k4_r2_sym"; n = 4; r = 2; sym = true };
    { name = "k4_r3_sym"; n = 4; r = 3; sym = true };
    { name = "k5_r2_sym"; n = 5; r = 2; sym = true };
  ]

(* One reference row per instance: verdict, states, full_states, edges. *)
type expected = { verdict : string; states : int; full_states : int; edges : int }

let load_reference path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         Scanf.sscanf l "%s %s %d %d %d" (fun name verdict states full_states edges ->
             (name, { verdict; states; full_states; edges })))

type clique = {
  p : (unit, bool) Protocol.t;
  input : unit array;
  group : Symmetry.t;
}

let verdict_kind = function
  | Checker.Stabilizing -> "stabilizing"
  | Checker.Oscillating _ -> "oscillating"
  | Checker.Too_large _ -> "too_large"

let verdict_text = function
  | Checker.Oscillating w ->
      let act a = String.concat "," (List.map string_of_int a) in
      let acts l = String.concat ";" (List.map act l) in
      Printf.sprintf "oscillating %d [%s] [%s]" w.Checker.init_code
        (acts w.Checker.prefix) (acts w.Checker.cycle)
  | v -> verdict_kind v

let run (cfg : Util.config) (tr : Trace.t) led =
  let (cliques, reference), setup_s =
    Util.setup ~reps:51 (fun () ->
        let clique n =
          let p = Clique_example.make n in
          let group = Symmetry.clique p.Protocol.graph in
          (n, { p; input = Clique_example.input n; group })
        in
        ( List.map clique (List.sort_uniq compare (List.map (fun i -> i.n) instances)),
          load_reference (Filename.concat cfg.ref_dir "certify-clique.txt") ))
  in
  let check_one i =
    let c = List.assoc i.n cliques in
    let symmetry = if i.sym then Some c.group else None in
    let v =
      Checker.check_label ~domains:1 ?symmetry c.p ~input:c.input ~r:i.r
        ~max_states:budget
    in
    (c, v, Checker.last_stats ())
  in
  let first = ref None in
  (* Per instance per traced pass: check time, stats, words allocated. *)
  let check_s = Hashtbl.create 8 and stats = Hashtbl.create 8 in
  let untraced = ref [] and traced = ref [] and items = ref 0 in
  let words = ref [] and majors = ref [] and replay_s = ref [] in
  let pass ~traced:tracing i =
    let tr = if tracing then tr else Trace.disabled in
    let root_work root =
      let w0 = Util.alloc_words () and g0 = Util.major_collections () in
      let states = ref 0 and replay = ref 0.0 in
      let rows =
        List.map
          (fun inst ->
            let (c, v, st), dt =
              Util.time (fun () ->
                  Trace.with_span tr ~parent:root ~pass:i
                    ~args:[ ("instance", inst.name) ]
                    "checker.check_label"
                    (fun _ -> check_one inst))
            in
            let exp = List.assoc_opt inst.name reference in
            let ok =
              match (st, exp) with
              | Some s, Some e ->
                  e.verdict = verdict_kind v && e.states = s.Checker.states
                  && e.full_states = s.Checker.full_states
                  && e.edges = s.Checker.edges
              | _ -> false
            in
            Util.check led ("certify: " ^ inst.name ^ " verdict and counts") ok;
            (match v with
            | Checker.Oscillating w ->
                let ok, dt =
                  Util.time (fun () ->
                      Trace.with_span tr ~parent:root ~pass:i "checker.replay"
                        (fun _ -> Checker.replay c.p ~input:c.input w))
                in
                replay := !replay +. dt;
                Util.check led ("certify: " ^ inst.name ^ " witness replays") ok
            | _ -> ());
            Option.iter
              (fun s ->
                states := !states + s.Checker.states;
                if tracing then begin
                  Hashtbl.replace stats inst.name s;
                  let prev = Hashtbl.find_opt check_s inst.name in
                  Hashtbl.replace check_s inst.name
                    (dt :: Option.value ~default:[] prev)
                end)
              st;
            ( inst.name ^ " " ^ verdict_text v,
              match st with Some s -> s.Checker.full_states | None -> 0 ))
          instances
      in
      if tracing then begin
        words := ((Util.alloc_words () -. w0) /. float (max 1 !states)) :: !words;
        majors := float (Util.major_collections () - g0) :: !majors;
        replay_s := !replay :: !replay_s
      end;
      rows
    in
    let rows, dt =
      Util.time (fun () ->
          Trace.with_span tr ~pass:i "pass" root_work)
    in
    let walls = if tracing then traced else untraced in
    walls := dt :: !walls;
    items := List.fold_left (fun a (_, k) -> a + k) 0 rows;
    let text = String.concat "\n" (List.map fst rows) in
    match !first with
    | None -> first := Some text
    | Some t -> Util.check led "certify: pass verdicts and witnesses" (text = t)
  in
  (* Without symmetry the fast explorer must match the seed checker
     exactly, witnesses included; with it, the verdict must. *)
  List.iter
    (fun n ->
      let c = List.assoc n cliques in
      List.iter
        (fun r ->
          let naive =
            Checker.Naive.check_label c.p ~input:c.input ~r ~max_states:budget
          in
          let fast = Checker.check_label c.p ~input:c.input ~r ~max_states:budget in
          let sym =
            Checker.check_label ~symmetry:c.group c.p ~input:c.input ~r
              ~max_states:budget
          in
          Util.check led
            (Printf.sprintf "certify: K%d r=%d equals Checker.Naive" n r)
            (naive = fast && verdict_kind naive = verdict_kind sym))
        [ 2; 3 ])
    [ 4 ];
  if not cfg.trace then begin
    let invocations =
      List.map
        (fun i ->
          [ "check"; "-n"; string_of_int i.n; "-r"; string_of_int i.r;
            "--budget"; string_of_int budget ]
          @ if i.sym then [ "--sym" ] else [])
        instances
    in
    let cli_ok k out =
      let i = List.nth instances k in
      match List.assoc_opt i.name reference with
      | None -> false
      | Some e ->
          (if e.verdict = "stabilizing" then Util.contains out "\nSTABILIZING"
           else
             Util.contains out "NOT STABILIZING"
             && Util.contains out "(replay check: true)")
          && ((not i.sym)
             || Util.contains out
                  (Printf.sprintf
                     "[explored %d orbit representatives of %d states]"
                     e.states e.full_states))
    in
    let cli_walls = ref [] in
    let cli rep =
      cli_walls :=
        Util.cli_twin cfg led ~rep ~tag:"check" invocations cli_ok :: !cli_walls
    in
    Util.rounds ~seconds:cfg.seconds ~min:3 ~cli (pass ~traced:false);
    [
      Util.m "throughput" "items/s" (float !items /. Util.median !untraced);
      Util.m "setup_s" "s" setup_s;
      Util.m "cli_wall_s" "s" (Util.median !cli_walls);
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    ]
  end
  else begin
    Util.rounds ~seconds:cfg.seconds ~min:2 (fun i -> pass ~traced:(i mod 2 = 1) i);
    let verify_s =
      Util.median
        (List.init 3 (fun _ ->
             Util.sum
               (List.map
                  (fun (_, c) ->
                    let ok, dt =
                      Util.time (fun () -> Symmetry.verify c.p ~input:c.input c.group)
                    in
                    Util.check led "certify: Symmetry.verify" ok;
                    dt)
                  cliques)))
    in
    let per_inst name =
      match Hashtbl.find_opt stats name with
      | None -> []
      | Some s ->
          let k = Printf.sprintf "checker.%s.%s" name in
          let looked = s.Checker.memo_hits + s.Checker.memo_misses in
          [
            Util.m (k "check_s") "s" (Util.median (Hashtbl.find check_s name));
            Util.m (k "states") "count" (float s.Checker.states);
            Util.m (k "full_states") "count" (float s.Checker.full_states);
            Util.m (k "edges") "count" (float s.Checker.edges);
            Util.m (k "memo_hit_rate") "ratio"
              (if looked > 0 then float s.Checker.memo_hits /. float looked
               else 0.0);
          ]
    in
    List.concat_map (fun i -> per_inst i.name) instances
    @ [
        Util.m "symmetry.verify_s" "s" verify_s;
        Util.m "checker.replay_s" "s" (Util.median !replay_s);
        Util.m "alloc.words_per_state" "words" (Util.median !words);
        Util.m "gc.major_collections" "count" (Util.median !majors);
        Util.m "trace.overhead" "ratio" (Util.median !traced /. Util.median !untraced);
        Util.m "trace.coverage" "ratio" (Trace.coverage tr ~root_name:"pass");
      ]
  end
