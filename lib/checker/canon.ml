(* Table-driven orbit canonicalization of checker states.

   A state key is [lab_code * r^n + cd_code]: the labeling's mixed-radix
   code (edge 0 most significant, radix card) above the countdown code
   (node 0 most significant, radix r, digit = countdown - 1). The action
   of group element [g] on a key is linear in these digits: the label
   digit at edge [e] (place value [card^(m-1-e) * r^n]) moves to edge
   [edge_perm g e], and the countdown digit of node [i] (place value
   [r^(n-1-i)]) moves to node [node_perm g i].

   The digits are grouped into chunks of at most [chunk_values] values —
   label chunks first, then countdown chunks, each run least significant
   first — and [tbl] maps (chunk, chunk value, element) to the place value
   that chunk's digits carry after permuting by the element. The image
   key of every element is then one table load per chunk ({!images})
   instead of one multiply-add per digit. Elements are innermost, so the
   whole group streams through one contiguous row per chunk, four chunks
   per pass. The canonical representative of an orbit is its minimum
   key. *)

let ipow = Stategraph.ipow

type t = {
  sy : Symmetry.t;
  gcount : int;
  cd_count : int;  (* r^n *)
  lab_chunks : int;  (* the leading chunks hold label digits *)
  base : int array;  (* chunk -> number of chunk values *)
  row : int array;  (* chunk -> index of its value-0 row *)
  slots : int;  (* chunks padded to a multiple of 4 with the zero row *)
  tbl : int array;  (* (row.(c) + value) * gcount + g -> place value *)
}

(* Per-domain scratch: a state's chunk rows (as table offsets) and the
   image keys of every group element. *)
type scratch = { rows : int array; img : int array }

(* Upper bound on the values of one chunk: 8 binary digits. *)
let chunk_values = 256

(* Chunk lengths covering [digits] digits of radix [radix], least
   significant first. A radix of at most 1 has only the digit 0, which
   contributes nothing, so it gets no chunks. *)
let chunk_lengths ~radix ~digits =
  if radix <= 1 then []
  else begin
    let rec width k v =
      if v > chunk_values / radix then k else width (k + 1) (v * radix)
    in
    let k = max 1 (width 0 1) in
    List.init ((digits + k - 1) / k) (fun c -> min k (digits - (c * k)))
  end

let make sy ~card ~r =
  let n = Symmetry.num_nodes sy and m = Symmetry.num_edges sy in
  let nps = Symmetry.node_perms sy and eps = Symmetry.edge_perms sy in
  let gcount = Array.length nps in
  let cd_count = ipow r n in
  (* Per chunk: radix, first digit position (counted from the least
     significant digit of its run) and length. *)
  let run radix digits =
    let pos = ref 0 in
    List.map
      (fun len ->
        let c = (radix, !pos, len) in
        pos := !pos + len;
        c)
      (chunk_lengths ~radix ~digits)
  in
  let lab = run card m and cd = run r n in
  let chunks = Array.of_list (lab @ cd) in
  let lab_chunks = List.length lab in
  let nch = Array.length chunks in
  let base = Array.map (fun (radix, _, len) -> ipow radix len) chunks in
  let row = Array.make nch 0 in
  for c = 1 to nch - 1 do
    row.(c) <- row.(c - 1) + base.(c - 1)
  done;
  (* One extra row stays zero: padding slots point at it. *)
  let rows = Array.fold_left ( + ) 0 base + 1 in
  let tbl = Array.make (rows * gcount) 0 in
  let card_pow = Array.init (m + 1) (ipow card)
  and r_pow = Array.init (n + 1) (ipow r) in
  for g = 0 to gcount - 1 do
    (* Place values after permuting by [g], by digit position. *)
    let lab_place =
      Array.init m (fun d ->
          card_pow.(m - 1 - eps.(g).(m - 1 - d)) * cd_count)
    and cd_place =
      Array.init n (fun d -> r_pow.(n - 1 - nps.(g).(n - 1 - d)))
    in
    Array.iteri
      (fun c (radix, pos, len) ->
        let place = if c < lab_chunks then lab_place else cd_place in
        let at0 = (row.(c) * gcount) + g in
        (* Values below [size] cover the chunk's first [j] digits; digit
           [j] = [d] extends them to [d * size + u]. *)
        let size = ref 1 in
        for j = 0 to len - 1 do
          let pv = place.(pos + j) in
          for d = 1 to radix - 1 do
            let dst = at0 + (d * !size * gcount) in
            for u = 0 to !size - 1 do
              tbl.(dst + (u * gcount)) <- (d * pv) + tbl.(at0 + (u * gcount))
            done
          done;
          size := !size * radix
        done)
      chunks
  done;
  let slots = max 4 ((nch + 3) / 4 * 4) in
  { sy; gcount; cd_count; lab_chunks; base; row; slots; tbl }

let group t = t.sy

let scratch t =
  {
    rows = Array.make t.slots (Array.length t.tbl - t.gcount);
    img = Array.make t.gcount 0;
  }

let images t sc key =
  let rows = sc.rows and img = sc.img and tbl = t.tbl in
  let gcount = t.gcount in
  let lab = ref (key / t.cd_count) and cd = ref (key mod t.cd_count) in
  for c = 0 to Array.length t.base - 1 do
    let digits = if c < t.lab_chunks then lab else cd in
    let b = Array.unsafe_get t.base c in
    Array.unsafe_set rows c
      ((Array.unsafe_get t.row c + (!digits mod b)) * gcount);
    digits := !digits / b
  done;
  let c = ref 0 in
  while !c < t.slots do
    let r0 = Array.unsafe_get rows !c
    and r1 = Array.unsafe_get rows (!c + 1)
    and r2 = Array.unsafe_get rows (!c + 2)
    and r3 = Array.unsafe_get rows (!c + 3) in
    let first = !c = 0 in
    for g = 0 to gcount - 1 do
      let v =
        Array.unsafe_get tbl (r0 + g)
        + Array.unsafe_get tbl (r1 + g)
        + Array.unsafe_get tbl (r2 + g)
        + Array.unsafe_get tbl (r3 + g)
      in
      Array.unsafe_set img g (if first then v else Array.unsafe_get img g + v)
    done;
    c := !c + 4
  done;
  img

let canon t sc key =
  let img = images t sc key in
  let best = ref key in
  for g = 1 to t.gcount - 1 do
    let k = Array.unsafe_get img g in
    if k < !best then best := k
  done;
  !best

let orbit_size t sc key =
  let stab = ref 0 in
  Array.iter (fun k -> if k = key then incr stab) (images t sc key);
  t.gcount / !stab

let to_canon t sc key =
  let best = ref key and arg = ref 0 in
  Array.iteri
    (fun g k ->
      if k < !best then begin
        best := k;
        arg := g
      end)
    (images t sc key);
  !arg

(* Every node permutation fixes the all-(r-1) countdown vector, so a
   full-countdown state is canonical iff its labeling code is minimal in
   its orbit. Scanning codes upwards, the first code reached of each orbit
   is its minimum: report it and mark its whole orbit, so each orbit's
   images are computed once. *)
let iter_initial t sc ~lab_count f =
  let full = t.cd_count - 1 in
  let seen = Bytes.make ((lab_count + 7) / 8) '\000' in
  let mem l =
    Char.code (Bytes.unsafe_get seen (l lsr 3)) land (1 lsl (l land 7))
  in
  for lab_code = 0 to lab_count - 1 do
    if mem lab_code = 0 then begin
      let key = (lab_code * t.cd_count) + full in
      f key;
      Array.iter
        (fun k ->
          let l = k / t.cd_count in
          Bytes.unsafe_set seen (l lsr 3)
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get seen (l lsr 3))
               lor (1 lsl (l land 7)))))
        (images t sc key)
    end
  done
