(* Shared plumbing for the workloads: clocks, medians, seed derivation,
   the pass/failure ledger, CLI twins and GC/RSS probes. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* A SplitMix64-style finalizer (constants cut to OCaml's 63-bit ints):
   decorrelates neighbouring workload seeds so seed 1 and seed 2 draw
   unrelated seed blocks. *)
let mix x =
  let x = x + 0x1e3779b97f4a7c15 in
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* A positive first per-run seed for the program, derived from the
   workload seed and a per-workload salt. Kept below 2^30 so that
   [seed0 + runs] stays far from overflow in every lab. *)
let derive_seed ~seed ~salt = 1 + (mix ((seed * 7919) + salt) land 0x3fff_ffff)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  cli : string;  (** path of the built [stateless_cli.exe] *)
  out_dir : string;  (** scratch directory inside the checkout *)
  ref_dir : string;  (** committed reference files *)
}

(* Every checked operation — a timed pass or a CLI invocation — is one
   attempt; a failed check marks it failed and is reported on stderr. *)
type ledger = { mutable attempted : int; mutable failed : int }

let ledger () = { attempted = 0; failed = 0 }

let check led what ok =
  led.attempted <- led.attempted + 1;
  if not ok then begin
    led.failed <- led.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Repeats [build] [reps] times and returns the last value with the
   median build time. Outside the timed region, a full major collection
   before each repetition frees the previous copy, and a compaction at
   the end returns the freed memory, so peak memory reflects one set-up. *)
let setup ~reps build =
  let last = ref None and times = ref [] in
  for _ = 1 to reps do
    last := None;
    Gc.full_major ();
    let v, dt = time build in
    last := Some v;
    times := dt :: !times
  done;
  Gc.compact ();
  (Option.get !last, median !times)

(* Runs round [i] = [pass i] then [cli i] until [seconds] have elapsed,
   at least [min] rounds. The host's speed drifts on a scale of seconds,
   so interleaving the in-process passes with the CLI twin lets both
   sample the same conditions. *)
let rounds ~seconds ~min ?(cli = ignore) pass =
  let deadline = now () +. seconds in
  let i = ref 0 in
  while !i < min || now () < deadline do
    pass !i;
    cli !i;
    incr i
  done

(* Runs the CLI once with [args], stdout captured to a file under
   [out_dir] and stdin from /dev/null; returns wall seconds, whether it
   exited 0, and its stdout. *)
let run_cli cfg ~tag args =
  let path = Filename.concat cfg.out_dir (tag ^ ".stdout") in
  let out = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process cfg.cli
      (Array.of_list (cfg.cli :: args))
      inp out Unix.stderr
  in
  let rec wait () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let dt = now () -. t0 in
  Unix.close out;
  Unix.close inp;
  let text = In_channel.with_open_bin path In_channel.input_all in
  (dt, status = Unix.WEXITED 0, text)

(* Runs one repetition [rep] of a CLI twin — a list of invocations,
   invocation [i] checked by [ok i stdout] — and returns its summed wall. *)
let cli_twin cfg led ~rep ~tag invocations ok =
  sum
    (List.mapi
       (fun i args ->
         let dt, exited0, out =
           run_cli cfg ~tag:(Printf.sprintf "%s-%d-%d" tag rep i) args
         in
         check led
           (Printf.sprintf "CLI `%s` (exit and output)" (String.concat " " args))
           (exited0 && ok i out);
         dt)
       invocations)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Words allocated by the calling domain so far. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let peak_rss_mb () =
  float (Stateless_core.Bench_json.peak_rss_kb ()) /. 1024.0

let hex_digest s = Digest.to_hex (Digest.string s)
