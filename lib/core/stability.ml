(* Every labeling of [p] in code order, as both its per-edge label codes
   and its labels, through one mixed-radix odometer (edge m-1 is the least
   significant digit). Both buffers are reused; [f] must not retain them. *)
let too_large () =
  invalid_arg "Stability.iter_labelings: labeling space too large"

let iter_coded p f =
  match Protocol.labelings_count p with
  | None -> too_large ()
  | Some count ->
      let m = Protocol.num_edges p in
      let space = p.Protocol.space in
      let labels = Array.make m (space.Label.decode 0) in
      let codes = Array.make m 0 in
      let rec next () =
        f codes labels;
        let rec carry e =
          if e < 0 then false
          else if codes.(e) + 1 < space.Label.card then begin
            codes.(e) <- codes.(e) + 1;
            labels.(e) <- space.Label.decode codes.(e);
            true
          end
          else begin
            codes.(e) <- 0;
            labels.(e) <- space.Label.decode 0;
            carry (e - 1)
          end
        in
        if carry (m - 1) then next ()
      in
      if count > 0 then next ()

let iter_labelings p f = iter_coded p (fun _ labels -> f labels)

(* Stability is read off the packed codes by the kernel's reaction tiers,
   so each node's reaction runs once per distinct in-view rather than once
   per labeling, and no configuration is built per labeling. *)
let fold_stable p ~input ~init ~f ~stop =
  if Protocol.labelings_count p = None then too_large ();
  let k = Kernel.create p ~input in
  let acc = ref init in
  let exception Done in
  (try
     iter_coded p (fun codes labels ->
         if Kernel.is_stable k ~labels:codes then begin
           acc := f !acc labels;
           if stop !acc then raise Done
         end)
   with Done -> ());
  !acc

let stable_labelings p ~input =
  List.rev
    (fold_stable p ~input ~init:[]
       ~f:(fun acc labels -> Array.copy labels :: acc)
       ~stop:(fun _ -> false))

let count_stable_labelings p ~input =
  fold_stable p ~input ~init:0 ~f:(fun acc _ -> acc + 1) ~stop:(fun _ -> false)

let has_multiple_stable_labelings p ~input =
  fold_stable p ~input ~init:0 ~f:(fun acc _ -> acc + 1) ~stop:(fun c -> c >= 2)
  >= 2
