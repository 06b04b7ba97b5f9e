let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match status with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let host ~domains () =
  Printf.sprintf
    "{ \"ocaml\": %S, \"recommended_domains\": %d, \"domains\": %d, \
     \"git_rev\": %S }"
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    domains (git_rev ())

(* Peak resident set from /proc/self/status (Linux); -1 when unreadable.
   VmHWM is monotone over the process lifetime, so benchmark legs that
   report it must run their instances in ascending size order. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then begin
            close_in ic;
            let rest = String.sub line 6 (String.length line - 6) in
            Scanf.sscanf rest " %d" (fun kb -> kb)
          end
          else scan ()
      | exception End_of_file ->
          close_in ic;
          -1
    in
    scan ()
  with _ -> -1

(* Bump when the envelope shape changes incompatibly. 2 = added
   schema_version itself and the optional cells accounting block. *)
let schema_version = 2

let write ~benchmark ?host ?cells ?(certification = []) oc body =
  Printf.fprintf oc "{\n  \"benchmark\": %S,\n" benchmark;
  Printf.fprintf oc "  \"schema_version\": %d,\n" schema_version;
  (match host with
  | Some h -> Printf.fprintf oc "  \"host\": %s,\n" h
  | None -> ());
  (match cells with
  | Some (ok, timeout, error) ->
      Printf.fprintf oc
        "  \"cells\": { \"ok\": %d, \"timeout\": %d, \"error\": %d },\n" ok
        timeout error
  | None -> ());
  if certification <> [] then begin
    Printf.fprintf oc "  \"certification\": [\n";
    List.iteri
      (fun i row ->
        Printf.fprintf oc "    %s%s\n" row
          (if i = List.length certification - 1 then "" else ","))
      certification;
    Printf.fprintf oc "  ],\n"
  end;
  body oc;
  Printf.fprintf oc "}\n"

(* Write-then-rename so readers (and a crash mid-write) never observe a
   truncated file: the visible path either holds the previous complete
   contents or the new complete contents. Same-directory rename is
   atomic on POSIX. *)
let to_file path emit =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try emit oc
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  close_out oc;
  Sys.rename tmp path
