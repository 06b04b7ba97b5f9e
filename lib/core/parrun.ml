let env_domains () =
  match Sys.getenv_opt "PARRUN_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some d
      | Some _ | None -> None)

(* Chunks per domain. More than one so the pool's chunk stealing can
   rebalance when task costs are uneven (e.g. recovery runs whose length
   depends on the seed); small enough that per-chunk overhead (one
   fetch-and-add, one context lookup) stays negligible. *)
let grain = 8

let map ?(domains = 1) ~ctx n f =
  if domains < 1 then invalid_arg "Parrun.map: domains must be >= 1";
  if n < 0 then invalid_arg "Parrun.map: negative task count";
  if n = 0 then [||]
  else if domains = 1 || n = 1 || Pool.in_worker () then begin
    let c = ctx () in
    Array.init n (fun i -> f c i)
  end
  else begin
    (* Task 0 runs on the caller first: its result seeds the result array
       (no [Obj.magic] placeholder, which would be unsound for floats). *)
    let c0 = ctx () in
    let r0 = f c0 0 in
    let results = Array.make n r0 in
    let rest = n - 1 in
    let nchunks = min rest (domains * grain) in
    let ctxs = Array.make domains None in
    ctxs.(0) <- Some c0;
    Pool.run ~domains ~nchunks (fun ~slot chunk ->
        let c =
          match ctxs.(slot) with
          | Some c -> c
          | None ->
              let c = ctx () in
              ctxs.(slot) <- Some c;
              c
        in
        let lo = 1 + (rest * chunk / nchunks)
        and hi = 1 + (rest * (chunk + 1) / nchunks) in
        for i = lo to hi - 1 do
          results.(i) <- f c i
        done);
    results
  end
