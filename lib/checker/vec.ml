(* Growable arrays for the model checker's state tables. *)

type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  if capacity < 0 then invalid_arg "Vec.create: negative capacity";
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let push t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (max 4 (2 * t.len)) t.dummy in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- v

(* Hot-loop accessors: bounds are the caller's responsibility. *)
let unsafe_get t i = Array.unsafe_get t.data i
let unsafe_set t i v = Array.unsafe_set t.data i v

(* Grow the backing store so at least [extra] more pushes fit without
   reallocation, enabling {!unsafe_push} in bulk-append loops. *)
let reserve t extra =
  let need = t.len + extra in
  if need > Array.length t.data then begin
    let cap = ref (max 4 (2 * Array.length t.data)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap t.dummy in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end

(* Append without the capacity check; a prior {!reserve} must cover it. *)
let unsafe_push t v =
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let to_array t = Array.sub t.data 0 t.len

(* Forget the contents but keep the allocated storage for reuse. *)
let clear t = t.len <- 0

(* [clear], reallocating near the last run's size when the storage wastes
   more than 8x of it. *)
let recycle t ~floor =
  let cap = Array.length t.data in
  if cap > floor && cap > 8 * t.len then
    t.data <- Array.make (max floor (2 * t.len)) t.dummy;
  t.len <- 0

let capacity t = Array.length t.data
