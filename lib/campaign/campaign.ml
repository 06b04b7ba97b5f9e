module Parrun = Stateless_core.Parrun
module Bench_json = Stateless_core.Bench_json
module Chaos = Stateless_core.Chaos

exception Deadline_exceeded
exception Journal_locked of string

type status = Ok | Timeout | Error of string

type 'r cell = {
  key : string;
  config : string;
  run : deadline:(unit -> bool) -> attempt:int -> 'r;
}

type 'r codec = { encode : 'r -> Value.t; decode : Value.t -> 'r option }

type 'r record = {
  key : string;
  fingerprint : string;
  status : status;
  result : 'r option;
  attempts : int;
  replayed : bool;
  last_exn : exn option;
}

type counts = { ok : int; timeout : int; error : int; replayed : int }
type 'r outcome = { records : 'r record array; counts : counts }

type policy = {
  journal : string option;
  resume : bool;
  cell_deadline : float option;
  retries : int;
}

let default_policy =
  { journal = None; resume = false; cell_deadline = None; retries = 0 }

let reseed_stride = 1_000_003

(* A retry shifts the whole seed block, so it re-measures with fresh
   randomness. *)
let seed_block ~seeds ~seed0 ~deadline ~attempt ~fresh =
  let seed0 = seed0 + (attempt * reseed_stride) in
  let measure = fresh () in
  Array.init seeds (fun j ->
      if deadline () then raise Deadline_exceeded;
      measure (seed0 + j))

type summary = {
  recovered : int;
  mean : float;
  p50 : int;
  p95 : int;
  worst : int;
}

let summary row =
  let times = Array.of_list (List.filter_map Fun.id (Array.to_list row)) in
  Array.sort compare times;
  let k = Array.length times in
  (* Nearest rank: the ceil(q * k)-th smallest time. *)
  let rank q =
    if k = 0 then 0
    else times.(max 0 (min (k - 1) (int_of_float (ceil (q *. float k)) - 1)))
  in
  {
    recovered = k;
    mean =
      (if k = 0 then 0.
       else float (Array.fold_left ( + ) 0 times) /. float k);
    p50 = rank 0.5;
    p95 = rank 0.95;
    worst = (if k = 0 then 0 else times.(k - 1));
  }

(* ------------------------------------------------------------------ *)
(* Fingerprints and the deadline clock                                 *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the config bytes in full 64-bit arithmetic — a collision
   here only costs a spurious skip/re-run match on a hand-edited
   journal. *)
let fingerprint s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Deadlines must never un-expire, but [gettimeofday] can step backwards
   (NTP); clamp it to its own max-so-far, shared across domains. *)
let clock_last = Atomic.make 0.0

let now () =
  let t = Chaos.on_clock (Unix.gettimeofday ()) in
  let rec clamp () =
    let l = Atomic.get clock_last in
    if t <= l then l
    else if Atomic.compare_and_set clock_last l t then t
    else clamp ()
  in
  clamp ()

let make_deadline = function
  | None -> fun () -> false
  | Some budget ->
      let cutoff = now () +. budget in
      fun () -> now () >= cutoff

(* ------------------------------------------------------------------ *)
(* Journal records                                                     *)
(* ------------------------------------------------------------------ *)

type journal_entry = {
  j_fp : string;
  j_status : status;
  j_attempts : int;
  j_result : Value.t;
}

let status_string = function
  | Ok -> "ok"
  | Timeout -> "timeout"
  | Error _ -> "error"

let render_record ~git rc ~encoded =
  Value.to_string
    (Value.Obj
       ([
          ("cell", Value.String rc.key);
          ("fp", Value.String rc.fingerprint);
          ("status", Value.String (status_string rc.status));
          ("attempts", Value.Int rc.attempts);
          ("git", Value.String git);
        ]
       @ (match rc.status with
         | Error msg -> [ ("msg", Value.String msg) ]
         | Ok | Timeout -> [])
       @ [ ("result", encoded) ]))

let entry_of_line line =
  match Value.parse line with
  | None -> None
  | Some v -> (
      let str k = Option.bind (Value.member k v) (function
        | Value.String s -> Some s
        | _ -> None)
      in
      match (str "cell", str "fp", str "status") with
      | Some key, Some fp, Some status ->
          let status =
            match status with
            | "ok" -> Some Ok
            | "timeout" -> Some Timeout
            | "error" ->
                Some (Error (Option.value ~default:"" (str "msg")))
            | _ -> None
          in
          Option.map
            (fun st ->
              ( key,
                {
                  j_fp = fp;
                  j_status = st;
                  j_attempts =
                    Option.value ~default:1
                      (Option.bind (Value.member "attempts" v) Value.to_int);
                  j_result =
                    Option.value ~default:Value.Null
                      (Value.member "result" v);
                } ))
            status
      | _ -> None)

(* Replay the journal: complete lines only (the final newline-less
   segment is a torn write and is discarded), stopping at the first
   line that fails to parse — everything after a corrupt record is
   suspect. Later records for the same key win (a resumed run appends
   fresh records for re-run cells). *)
let load_journal path =
  let entries = Hashtbl.create 64 in
  (match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      let len = in_channel_length ic in
      let data = Chaos.on_journal_read (really_input_string ic len) in
      close_in ic;
      let len = String.length data in
      let stop = ref false in
      let pos = ref 0 in
      while (not !stop) && !pos < len do
        match String.index_from_opt data !pos '\n' with
        | None -> stop := true (* torn tail: no newline *)
        | Some nl ->
            let line = String.sub data !pos (nl - !pos) in
            pos := nl + 1;
            if line <> "" then (
              match entry_of_line line with
              | Some (key, e) -> Hashtbl.replace entries key e
              | None -> stop := true)
      done);
  entries

(* ------------------------------------------------------------------ *)
(* Journal locking                                                     *)
(* ------------------------------------------------------------------ *)

(* Two campaigns appending to one journal would interleave records and
   poison any later resume; fail fast instead. fcntl locks only conflict
   across processes — within one process the kernel happily re-grants
   them — so an in-process registry of locked paths backs up [lockf]. *)
let locked_paths : (string, unit) Hashtbl.t = Hashtbl.create 4
let locked_mu = Mutex.create ()

let lock_journal path oc =
  let id = try Unix.realpath path with Unix.Unix_error _ -> path in
  Mutex.lock locked_mu;
  let mine = not (Hashtbl.mem locked_paths id) in
  if mine then Hashtbl.add locked_paths id ();
  Mutex.unlock locked_mu;
  if not mine then raise (Journal_locked path);
  (match Unix.lockf (Unix.descr_of_out_channel oc) Unix.F_TLOCK 0 with
  | () -> ()
  | exception Unix.Unix_error ((EAGAIN | EACCES), _, _) ->
      Mutex.lock locked_mu;
      Hashtbl.remove locked_paths id;
      Mutex.unlock locked_mu;
      raise (Journal_locked path)
  | exception Unix.Unix_error _ ->
      (* Filesystem without lock support: the registry still protects
         same-process collisions, which covers every test we can run. *)
      ());
  id

let unlock_journal id =
  Mutex.lock locked_mu;
  Hashtbl.remove locked_paths id;
  Mutex.unlock locked_mu

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run (type r) ?(domains = 1) ?(policy = default_policy)
    ~(codec : r codec) (cells : r cell array) : r outcome =
  let n = Array.length cells in
  let seen = Hashtbl.create n in
  Array.iter
    (fun (c : r cell) ->
      if Hashtbl.mem seen c.key then
        invalid_arg
          (Printf.sprintf "Campaign.run: duplicate cell key %S" c.key);
      Hashtbl.add seen c.key ())
    cells;
  let fps = Array.map (fun c -> fingerprint c.config) cells in
  let prior =
    match policy.journal with
    | Some path when policy.resume -> load_journal path
    | Some _ | None -> Hashtbl.create 0
  in
  let records : r record option array = Array.make n None in
  let pending = ref [] in
  for i = n - 1 downto 0 do
    let c = cells.(i) in
    let restored =
      match Hashtbl.find_opt prior c.key with
      | Some e when e.j_fp = fps.(i) && e.j_status = Ok -> (
          match codec.decode e.j_result with
          | Some r ->
              records.(i) <-
                Some
                  {
                    key = c.key;
                    fingerprint = fps.(i);
                    status = Ok;
                    result = Some r;
                    attempts = e.j_attempts;
                    replayed = true;
                    last_exn = None;
                  };
              true
          | None -> false)
      | _ -> false
    in
    if not restored then pending := i :: !pending
  done;
  let pending = Array.of_list !pending in
  let jout, jlock =
    match policy.journal with
    | None -> (None, None)
    | Some path -> (
        (* Fresh campaigns truncate; resumed ones append after the last
           complete record (a torn tail is overwritten in place). *)
        let flags =
          if policy.resume then [ Open_wronly; Open_append; Open_creat ]
          else [ Open_wronly; Open_trunc; Open_creat ]
        in
        let oc = open_out_gen flags 0o644 path in
        match lock_journal path oc with
        | id -> (Some oc, Some id)
        | exception e ->
            close_out_noerr oc;
            raise e)
  in
  let jmu = Mutex.create () in
  let git = Bench_json.git_rev () in
  let journal rc =
    match jout with
    | None -> ()
    | Some oc ->
        let encoded =
          match rc.result with
          | Some r -> codec.encode r
          | None -> Value.Null
        in
        let line = render_record ~git rc ~encoded in
        Mutex.lock jmu;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock jmu)
          (fun () ->
            (* The record is only durable once it reaches the device: a
               resumed run must never observe a half-written line that a
               crashed predecessor thought was committed. *)
            let fsync () =
              try Unix.fsync (Unix.descr_of_out_channel oc)
              with Unix.Unix_error _ -> ()
            in
            try
              match Chaos.on_journal_write line with
              | `Write ->
                  output_string oc line;
                  output_char oc '\n';
                  flush oc;
                  fsync ()
              | `Dup ->
                  output_string oc line;
                  output_char oc '\n';
                  output_string oc line;
                  output_char oc '\n';
                  flush oc;
                  fsync ()
              | `Enospc ->
                  (* Simulated full disk: only durability is lost — the
                     in-memory result stands and a resume re-runs the
                     cell. *)
                  ()
              | `Torn k ->
                  (* Crash mid-append: the torn prefix really reaches
                     the device before the simulated death. *)
                  output_string oc (String.sub line 0 k);
                  flush oc;
                  fsync ();
                  Chaos.raise_injected Chaos.Journal_write
            with Sys_error _ ->
              (* A real write failure degrades the same way as ENOSPC:
                 keep the result, lose the durability. *)
              ())
  in
  let exec i =
    let c = cells.(i) in
    let deadline = make_deadline policy.cell_deadline in
    let rec attempt k =
      match c.run ~deadline ~attempt:k with
      | r ->
          {
            key = c.key;
            fingerprint = fps.(i);
            status = Ok;
            result = Some r;
            attempts = k + 1;
            replayed = false;
            last_exn = None;
          }
      | exception Deadline_exceeded ->
          {
            key = c.key;
            fingerprint = fps.(i);
            status = Timeout;
            result = None;
            attempts = k + 1;
            replayed = false;
            last_exn = None;
          }
      | exception exn ->
          if k < policy.retries then attempt (k + 1)
          else
            {
              key = c.key;
              fingerprint = fps.(i);
              status = Error (Printexc.to_string exn);
              result = None;
              attempts = k + 1;
              replayed = false;
              last_exn = Some exn;
            }
    in
    attempt 0
  in
  let fresh =
    (* Injected crashes (and anything else) must still release the
       journal channel and lock: a chaos storm that kills the campaign
       leaves the journal free for the resume run. *)
    Fun.protect
      ~finally:(fun () ->
        (match jout with None -> () | Some oc -> close_out_noerr oc);
        match jlock with None -> () | Some id -> unlock_journal id)
      (fun () ->
        Parrun.map ~domains
          ~ctx:(fun () -> ())
          (Array.length pending)
          (fun () t ->
            let rc = exec pending.(t) in
            journal rc;
            rc))
  in
  Array.iteri (fun t rc -> records.(pending.(t)) <- Some rc) fresh;
  let records = Array.map Option.get records in
  let counts =
    Array.fold_left
      (fun acc rc ->
        match rc.status with
        | Ok ->
            {
              acc with
              ok = acc.ok + 1;
              replayed = (acc.replayed + if rc.replayed then 1 else 0);
            }
        | Timeout -> { acc with timeout = acc.timeout + 1 }
        | Error _ -> { acc with error = acc.error + 1 })
      { ok = 0; timeout = 0; error = 0; replayed = 0 }
      records
  in
  { records; counts }
