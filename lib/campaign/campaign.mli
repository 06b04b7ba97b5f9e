(** Crash-tolerant experiment-matrix orchestrator.

    A campaign is a matrix of {e cells} — one cell per (topology ×
    protocol × adversary/fault config × budget × seed block) point — and
    every lab (faultlab, netlab, byzlab, simlab) compiles its scenario
    sweep into such cells. The driver shards cells across the persistent
    domain pool ({!Stateless_core.Parrun}), and because every cell's
    result is a pure function of its fingerprinted config, the merged
    campaign is assembled in matrix order and is bit-identical for every
    domain count, execution order, and — with a journal — for any
    kill/resume split.

    {2 Journal}

    With [policy.journal = Some path], each completed cell is appended
    to [path] as one self-delimiting JSON-lines record (newline
    terminated, flushed and [fsync]'d before the driver moves on):

    {v
    {"cell":<key>,"fp":<fingerprint>,"status":"ok"|"timeout"|"error",
     "attempts":n,"git":<rev>,"msg":<error text>,"result":<value>}
    v}

    On [resume = true] the driver replays the journal before running:
    [ok] records whose fingerprint matches the cell's current config are
    restored without re-execution; a torn tail (a final line without its
    newline, or that fails to parse) is discarded and its cell re-run;
    [timeout]/[error] records are re-run too (a resumed campaign gives
    previously poisoned cells another chance — their re-run appends a
    fresh record, and the last record per key wins). A campaign killed
    at an arbitrary point and resumed therefore produces a final merged
    result byte-identical to the uninterrupted run.

    Without [resume], an existing journal at [path] is truncated.

    {2 Robustness policy}

    [cell_deadline] is a wall-clock budget per cell, measured on a
    monotone-clamped clock (the max-so-far of [Unix.gettimeofday] —
    never steps backwards) and enforced cooperatively: the cell's [run]
    polls its [deadline] argument inside its own loop (between seeds,
    blocks or horizon slices — no signals are involved) and raises
    {!Deadline_exceeded} when it reads [true]; the driver retires the
    cell with a [Timeout] record. A cell that raises any other exception
    is retried up to [retries] more times — each attempt passes an
    incremented [attempt] so the cell can reseed — and after the last
    failure is retired with a structured [Error] record; the campaign
    always completes, and {!counts} reports the ok/timeout/error split. *)

(** Raised by a cell's [run] when its [deadline] poll returns [true]. *)
exception Deadline_exceeded

(** Raised by {!run} when another live campaign already holds the
    journal path named in the payload — concurrent appenders would
    interleave records and poison any later resume. Detection uses an
    [fcntl] write lock on the journal plus an in-process path registry
    (fcntl locks never conflict within one process). The lock is
    released when the campaign finishes, crashes, or is killed. *)
exception Journal_locked of string

type status = Ok | Timeout | Error of string

type 'r cell = {
  key : string;
      (** unique within the matrix and stable across runs — the journal
          replay key *)
  config : string;
      (** canonical description of everything the result depends on;
          hashed into the record's fingerprint, so any config change
          forces a re-run on resume *)
  run : deadline:(unit -> bool) -> attempt:int -> 'r;
      (** computes the cell; polls [deadline] inside its loop and raises
          {!Deadline_exceeded} when it reads [true]; [attempt] is 0 on
          the first execution and increments per retry (reseed with it) *)
}

(** How a cell result crosses the journal: [decode (parse (to_string
    (encode r)))] must reconstruct [r] exactly, or resumed merges lose
    byte-identity. [decode] returns [None] on shape mismatch (the cell
    is then re-run). *)
type 'r codec = { encode : 'r -> Value.t; decode : Value.t -> 'r option }

type 'r record = {
  key : string;
  fingerprint : string;
  status : status;
  result : 'r option;  (** [Some] exactly when [status = Ok] *)
  attempts : int;
  replayed : bool;  (** restored from the journal, not executed *)
  last_exn : exn option;
      (** the original exception behind an [Error], when it happened in
          this process (replayed records carry only the message) *)
}

type counts = {
  ok : int;
  timeout : int;
  error : int;
  replayed : int;  (** subset of [ok] restored from the journal *)
}

type 'r outcome = { records : 'r record array; counts : counts }
(** [records] is in matrix (input) order regardless of execution order. *)

type policy = {
  journal : string option;
  resume : bool;
  cell_deadline : float option;  (** wall-clock seconds per cell *)
  retries : int;  (** extra executions after a raise (not after timeout) *)
}

(** No journal, no resume, no deadline, no retries — labs' plain [run]
    entry points use this, so their campaigns behave exactly as before. *)
val default_policy : policy

(** Hex fingerprint of a config string (FNV-1a, 64-bit). *)
val fingerprint : string -> string

(** The monotone-clamped wall clock used for deadlines, in seconds. *)
val now : unit -> float

(** Seed stride between retry attempts: labs derive attempt [a]'s first
    seed as [seed0 + a * reseed_stride], so a retried cell re-executes
    with fresh randomness while attempt numbers stay deterministic. *)
val reseed_stride : int

(** [seed_block ~seeds ~seed0 ~deadline ~attempt ~fresh] is the body of
    a lab cell covering one seed block. It measures seeds
    [s .. s + seeds - 1], where [s = seed0 + attempt * reseed_stride], by
    calling [fresh ()] once and the result once per seed. [deadline] is
    polled before every seed; {!Deadline_exceeded} is raised when it reads
    [true]. *)
val seed_block :
  seeds:int ->
  seed0:int ->
  deadline:(unit -> bool) ->
  attempt:int ->
  fresh:(unit -> int -> 'r) ->
  'r array

(** Recovery-time summary of one row of runs. *)
type summary = {
  recovered : int;  (** runs that recovered *)
  mean : float;  (** mean recovery time over them; 0 when none *)
  p50 : int;  (** nearest-rank percentiles of recovery time; 0 when none *)
  p95 : int;
  worst : int;  (** largest recovery time; 0 when none *)
}

(** [summary row] summarizes the recovery times of a row; [None] is a
    run that did not recover. *)
val summary : int option array -> summary

(** [run ~codec cells] executes the matrix under [policy] (default
    {!default_policy}), sharding pending cells over [domains] (default
    1) through the domain pool.
    @raise Invalid_argument on duplicate cell keys. *)
val run :
  ?domains:int ->
  ?policy:policy ->
  codec:'r codec ->
  'r cell array ->
  'r outcome
