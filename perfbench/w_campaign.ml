(* campaign-journal: the [campaign] matrix — faults, netlab, byz and sim
   legs, nine Campaign.run calls — at domains 2 with a fresh journal,
   followed in the same pass by a resume of the completed journal. The
   only workload with journal writes beside replay reads, the only one
   crossing Pool with more than one domain, and the only one running
   Netlab and Byzlab. CLI twin: [campaign --runs R --domains 2 --seed S
   --journal J] then the same with [--resume]. Throughput unit: matrix
   cells/s over the pass, fresh and replayed cells both counted. *)

open Stateless_core
module Campaign = Stateless_campaign.Campaign
module Value = Stateless_campaign.Value
module Faultlab = Stateless_faultlab.Faultlab
module Netlab = Stateless_netlab.Netlab
module Byzlab = Stateless_byzlab.Byzlab
module Simlab = Stateless_simlab.Simlab

let domains = 2

(* What a traced pass wraps around every cell and codec call. *)
type hooks = {
  cell : 'a. lab:string -> key:string -> (unit -> 'a) -> 'a;
  encode : Trace.acc;
  decode : Trace.acc;
}

(* One Campaign.run call of the matrix. [go] returns the merged records
   (key, status and encoded result, in matrix order), the counts and the
   number of cells. *)
type leg = {
  lab : string;
  go : policy:Campaign.policy -> hooks option -> string * Campaign.counts * int;
}

let status_name = function
  | Campaign.Ok -> "ok"
  | Campaign.Timeout -> "timeout"
  | Campaign.Error e -> "error " ^ e

let leg lab (codec : 'r Campaign.codec) (cells : unit -> 'r Campaign.cell array) =
  let go ~policy hooks =
    let cs = cells () in
    let cs, run_codec =
      match hooks with
      | None -> (cs, codec)
      | Some h ->
          ( Array.map
              (fun (c : 'r Campaign.cell) ->
                {
                  c with
                  Campaign.run =
                    (fun ~deadline ~attempt ->
                      h.cell ~lab ~key:c.key (fun () -> c.run ~deadline ~attempt));
                })
              cs,
            {
              Campaign.encode =
                (fun r -> Trace.timed h.encode (fun () -> codec.encode r));
              decode =
                (fun v -> Trace.timed h.decode (fun () -> codec.decode v));
            } )
    in
    let o = Campaign.run ~domains ~policy ~codec:run_codec cs in
    let b = Buffer.create 4096 in
    Array.iter
      (fun (r : 'r Campaign.record) ->
        Printf.bprintf b "%s %s %s\n" r.key (status_name r.status)
          (match r.result with
          | Some v -> Value.to_string (codec.encode v)
          | None -> "-"))
      o.records;
    (Buffer.contents b, o.counts, Array.length cs)
  in
  { lab; go }

(* The legs and settings of the CLI's [campaign] subcommand. *)
let matrix ~runs ~seed0 (fs, ns, bs, inst) =
  let budget = { Netlab.k = 4; window = 8 } in
  List.map
    (fun sc ->
      leg "faultlab" Faultlab.codec (fun () ->
          Faultlab.cells ~seeds:runs ~seed0 ~batch:1 sc))
    fs
  @ List.map
      (fun sc ->
        leg "netlab" Netlab.codec (fun () ->
            Netlab.cells ~seeds:runs ~seed0 ~batch:1 ~budget sc))
      ns
  @ List.map
      (fun sc ->
        leg "byzlab" Byzlab.codec (fun () ->
            Byzlab.cells ~seeds:runs ~seed0 ~batch:1
              ~strategy:Byzlab.Seeded_random sc))
      bs
  @ [
      leg "simlab" Simlab.codec (fun () ->
          Simlab.cells inst ~seed0 ~runs ~horizon:20.0);
    ]

(* A one-cell matrix whose cell does nothing: the orchestrator's fixed
   cost per call. *)
let noop_run () =
  let codec =
    { Campaign.encode = (fun () -> Value.Null); decode = (fun _ -> Some ()) }
  in
  let cell =
    {
      Campaign.key = "noop";
      config = "noop";
      run = (fun ~deadline:_ ~attempt:_ -> ());
    }
  in
  ignore (Campaign.run ~domains ~codec [| cell |])

let add (a : Campaign.counts) (b : Campaign.counts) =
  {
    Campaign.ok = a.ok + b.ok;
    timeout = a.timeout + b.timeout;
    error = a.error + b.error;
    replayed = a.replayed + b.replayed;
  }

let zero = { Campaign.ok = 0; timeout = 0; error = 0; replayed = 0 }

let run (cfg : Util.config) (tr : Trace.t) led =
  let runs = if cfg.smoke then 2 else 100 in
  let seed0 = Util.derive_seed ~seed:cfg.seed ~salt:4 in
  let journal = Filename.concat cfg.out_dir "campaign-journal.jsonl" in
  let legs, setup_s =
    Util.setup ~reps:21 (fun () ->
        let faults =
          { Eventsim.loss = 0.05; dup = 0.02; crash = 0.0; crash_len = 1.0 }
        in
        let inst =
          Simlab.build
            (Simlab.Contagion { threshold = 0.5; seed_frac = 0.01 })
            Simlab.Ring ~graph_seed:42 ~nodes:2000 ~rate:1.0
            ~latency:(Eventsim.Exp 1.0) ~faults
        in
        (* Spawns the pool's worker domain on the first setup. *)
        noop_run ();
        matrix ~runs ~seed0
          ( Faultlab.default_scenarios (),
            Netlab.default_scenarios (),
            Byzlab.default_scenarios (),
            inst ))
  in
  (* Runs every leg in order: a fresh phase truncates the journal on its
     first leg and appends on the rest, as the CLI does; a resume phase
     replays on every leg. Each call is a "campaign.run" span. *)
  let phase ~pass ~root ~journal ~resume hooks cur =
    let tr = if Option.is_none hooks then Trace.disabled else tr in
    List.fold_left
      (fun (merge, counts, cells, first) l ->
        let policy =
          {
            Campaign.journal;
            resume = resume || not first;
            cell_deadline = None;
            retries = 0;
          }
        in
        let m, k, n =
          Trace.with_span tr ~parent:root ~pass
            ~args:[ ("lab", l.lab); ("phase", if resume then "resume" else "fresh") ]
            "campaign.run"
            (fun id ->
              cur := (id, pass);
              l.go ~policy hooks)
        in
        (merge ^ m, add counts k, cells + n, false))
      ("", zero, 0, true) legs
  in
  let first = ref None in
  let resume_walls = ref [] and untraced = ref [] in
  let traced = ref [] and journal_s = ref [] and items = ref 0 in
  let encode_s = ref [] and decode_s = ref [] and replayed = ref 0 in
  let cur = ref (-1, -1) in
  let hooks =
    {
      cell =
        (fun ~lab ~key f ->
          let parent, pass = !cur in
          Trace.with_span tr ~parent ~pass ~args:[ ("key", key) ] (lab ^ ".cell")
            (fun _ -> f ()));
      encode = Trace.acc ();
      decode = Trace.acc ();
    }
  in
  let full_pass ~tracing i root =
    let h = if tracing then Some hooks else None in
    let fresh, kf, cells, _ =
      phase ~pass:i ~root ~journal:(Some journal) ~resume:false h cur
    in
    let (resumed, kr, _, _), trs =
      Util.time (fun () ->
          phase ~pass:i ~root ~journal:(Some journal) ~resume:true h cur)
    in
    Util.check led "campaign: fresh cells all ok" (kf.ok = cells && kf.replayed = 0);
    Util.check led "campaign: resume replays every cell"
      (kr.ok = cells && kr.replayed = cells);
    Util.check led "campaign: resumed merge byte-identical to fresh merge"
      (resumed = fresh);
    (match !first with
    | None -> first := Some (fresh, cells)
    | Some (f, _) ->
        Util.check led "campaign: pass merge equals first pass" (fresh = f));
    items := 2 * cells;
    replayed := kr.replayed;
    trs
  in
  let pass i =
    match if cfg.trace then i mod 3 else 0 with
    | 0 ->
        let trs, dt = Util.time (fun () -> full_pass ~tracing:false i (-1)) in
        resume_walls := trs :: !resume_walls;
        untraced := dt :: !untraced
    | 1 ->
        Trace.reset hooks.encode;
        Trace.reset hooks.decode;
        let _, dt =
          Util.time (fun () ->
              Trace.with_span tr ~pass:i "pass" (fun root ->
                  full_pass ~tracing:true i root))
        in
        encode_s := hooks.encode.busy :: !encode_s;
        decode_s := hooks.decode.busy :: !decode_s;
        traced := dt :: !traced
    | _ ->
        (* The same fresh cells without and then with the journal. *)
        let fresh journal =
          Util.time (fun () -> phase ~pass:i ~root:(-1) ~journal ~resume:false None cur)
        in
        let (m, _, _, _), without = fresh None in
        let _, with_journal = fresh (Some journal) in
        Util.check led "campaign: merge without journal equals first pass"
          (Some m = Option.map fst !first);
        journal_s := (with_journal -. without) :: !journal_s
  in
  if not cfg.trace then begin
    let cli_journal = Filename.concat cfg.out_dir "cli-journal.jsonl" in
    let base =
      [ "campaign"; "--runs"; string_of_int runs; "--domains"; string_of_int domains;
        "--seed"; string_of_int seed0; "--journal"; cli_journal ]
    in
    (* Everything but the summary line must match between the fresh and
       the resumed invocation. *)
    let bodies = Array.make 2 "" in
    let cli_ok k out =
      let cells = snd (Option.get !first) in
      let tail =
        Printf.sprintf
          "campaign complete: %d ok (%d replayed), 0 timeout, 0 error\n" cells
          (if k = 0 then 0 else cells)
      in
      let n = String.length out and t = String.length tail in
      n >= t
      && String.sub out (n - t) t = tail
      &&
      (bodies.(k) <- String.sub out 0 (n - t);
       k = 0 || bodies.(1) = bodies.(0))
    in
    let cli_walls = ref [] in
    let cli rep =
      cli_walls :=
        Util.cli_twin cfg led ~rep ~tag:"campaign" [ base; base @ [ "--resume" ] ]
          cli_ok
        :: !cli_walls
    in
    Util.rounds ~seconds:cfg.seconds ~min:3 ~cli pass;
    [
      Util.m "throughput" "items/s" (float !items /. Util.median !untraced);
      Util.m "setup_s" "s" setup_s;
      Util.m "cli_wall_s" "s" (Util.median !cli_walls);
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb ());
    ]
  end
  else begin
    Util.rounds ~seconds:cfg.seconds ~min:3 pass;
    let spans = Trace.spans tr in
    let runs_of pass phase =
      List.filter
        (fun (s : Trace.span) ->
          s.name = "campaign.run" && s.pass = pass
          && List.assoc_opt "phase" s.args = Some phase)
        spans
    in
    let passes =
      List.sort_uniq compare
        (List.filter_map
           (fun (s : Trace.span) -> if s.name = "pass" then Some s.pass else None)
           spans)
    in
    let per_pass f = Util.median (List.map f passes) in
    let fresh_cells pass =
      List.concat_map
        (fun (r : Trace.span) -> Trace.children tr r.id)
        (runs_of pass "fresh")
    in
    let lab_cell lab =
      per_pass (fun p ->
          Util.sum
            (List.filter_map
               (fun (c : Trace.span) ->
                 if c.name = lab ^ ".cell" then Some (Trace.dur c) else None)
               (fresh_cells p)))
    in
    let busy_share p =
      let busy = Util.sum (List.map Trace.dur (fresh_cells p)) in
      let wall = Util.sum (List.map Trace.dur (runs_of p "fresh")) in
      busy /. (float domains *. wall)
    in
    let imbalance p =
      let by_tid = Hashtbl.create 4 in
      List.iter
        (fun (c : Trace.span) ->
          Hashtbl.replace by_tid c.tid
            (Trace.dur c +. Option.value ~default:0.0 (Hashtbl.find_opt by_tid c.tid)))
        (fresh_cells p);
      let busy = Hashtbl.fold (fun _ b acc -> b :: acc) by_tid [] in
      let mean = Util.sum busy /. float domains in
      List.fold_left Float.max 0.0 busy /. mean
    in
    let self_s p =
      Util.sum (List.map (Trace.self_time tr) (runs_of p "fresh" @ runs_of p "resume"))
    in
    let bytes = (Unix.stat journal).Unix.st_size in
    let records =
      List.length (In_channel.with_open_bin journal In_channel.input_lines)
    in
    let overhead =
      Util.median
        (List.init 5 (fun _ -> snd (Util.time noop_run)))
    in
    [
      Util.m "campaign.self_s" "s" (per_pass self_s);
      Util.m "campaign.call_overhead_s" "s" overhead;
      Util.m "campaign.journal_s" "s" (Util.median !journal_s);
      Util.m "campaign.journal_bytes" "bytes" (float bytes);
      Util.m "campaign.journal_records" "count" (float records);
      Util.m "campaign.replay_s" "s" (Util.median !resume_walls);
      Util.m "campaign.replayed" "count" (float !replayed);
      Util.m "value.encode_s" "s" (Util.median !encode_s);
      Util.m "value.decode_s" "s" (Util.median !decode_s);
      Util.m "pool.busy_share" "ratio" (per_pass busy_share);
      Util.m "pool.slot_imbalance" "ratio" (per_pass imbalance);
      Util.m "faultlab.cell_s" "s" (lab_cell "faultlab");
      Util.m "netlab.cell_s" "s" (lab_cell "netlab");
      Util.m "byzlab.cell_s" "s" (lab_cell "byzlab");
      Util.m "simlab.cell_s" "s" (lab_cell "simlab");
      Util.m "trace.overhead" "ratio" (Util.median !traced /. Util.median !untraced);
      Util.m "trace.coverage" "ratio" (Trace.coverage tr ~root_name:"pass");
    ]
  end
