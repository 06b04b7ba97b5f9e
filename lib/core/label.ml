type 'a t = {
  card : int;
  encode : 'a -> int;
  decode : int -> 'a;
  pp : Format.formatter -> 'a -> unit;
}

let complexity t = log (float_of_int t.card) /. log 2.0

let bit_length t =
  let rec loop bits capacity =
    if capacity >= t.card then bits else loop (bits + 1) (capacity * 2)
  in
  loop 0 1

let code_bytes t =
  if t.card <= 0x100 then 1
  else if t.card <= 0x10000 then 2
  else if t.card <= 0x1_0000_0000 then 4
  else 8

let bool =
  {
    card = 2;
    encode = (fun b -> if b then 1 else 0);
    decode = (fun i -> i <> 0);
    pp = Format.pp_print_bool;
  }

let int n =
  if n <= 0 then invalid_arg "Label.int: cardinality must be positive";
  {
    card = n;
    encode = (fun v -> if v < 0 || v >= n then
        invalid_arg "Label.int: value out of range" else v);
    decode = (fun i -> i);
    pp = Format.pp_print_int;
  }

let pair a b =
  {
    card = a.card * b.card;
    encode = (fun (x, y) -> (a.encode x * b.card) + b.encode y);
    decode = (fun i -> (a.decode (i / b.card), b.decode (i mod b.card)));
    pp = (fun ppf (x, y) -> Format.fprintf ppf "(%a, %a)" a.pp x b.pp y);
  }

let triple a b c =
  let nested = pair a (pair b c) in
  {
    card = nested.card;
    encode = (fun (x, y, z) -> nested.encode (x, (y, z)));
    decode = (fun i -> let x, (y, z) = nested.decode i in (x, y, z));
    pp =
      (fun ppf (x, y, z) ->
        Format.fprintf ppf "(%a, %a, %a)" a.pp x b.pp y c.pp z);
  }

let power base k =
  let rec loop acc k = if k = 0 then acc else loop (acc * base) (k - 1) in
  loop 1 k

let vector a k =
  if k < 0 then invalid_arg "Label.vector: negative length";
  let card = power a.card k in
  if card <= 0 then invalid_arg "Label.vector: cardinality overflow";
  {
    card;
    encode =
      (fun arr ->
        if Array.length arr <> k then
          invalid_arg "Label.vector: wrong array length";
        Array.fold_left (fun acc v -> (acc * a.card) + a.encode v) 0 arr);
    decode =
      (fun i ->
        let arr = Array.make k (a.decode 0) in
        let rest = ref i in
        for pos = k - 1 downto 0 do
          arr.(pos) <- a.decode (!rest mod a.card);
          rest := !rest / a.card
        done;
        arr);
    pp =
      (fun ppf arr ->
        Format.fprintf ppf "[|";
        Array.iteri
          (fun i v ->
            if i > 0 then Format.fprintf ppf "; ";
            a.pp ppf v)
          arr;
        Format.fprintf ppf "|]");
  }

let bool_vector k = vector bool k

let enum values ~pp ~equal =
  let arr = Array.of_list values in
  let card = Array.length arr in
  if card = 0 then invalid_arg "Label.enum: empty value list";
  let encode v =
    let rec find i =
      if i >= card then invalid_arg "Label.enum: value not in space"
      else if equal arr.(i) v then i
      else find (i + 1)
    in
    find 0
  in
  { card; encode; decode = (fun i -> arr.(i)); pp }

let option a =
  {
    card = a.card + 1;
    encode = (function None -> 0 | Some v -> 1 + a.encode v);
    decode = (fun i -> if i = 0 then None else Some (a.decode (i - 1)));
    pp =
      (fun ppf -> function
        | None -> Format.pp_print_string ppf "ω"
        | Some v -> a.pp ppf v);
  }

let iso ~fwd ~bwd ~pp a =
  {
    card = a.card;
    encode = (fun b -> a.encode (bwd b));
    decode = (fun i -> fwd (a.decode i));
    pp;
  }

let check_roundtrip t =
  let rec loop i =
    if i >= t.card then true
    else if t.encode (t.decode i) = i then loop (i + 1)
    else false
  in
  loop 0
