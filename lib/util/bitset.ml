type t = {
  width : int;
  words : int array;
}

let bits_per_word = Sys.int_size

let create width =
  if width < 0 then invalid_arg "Bitset.create: negative width";
  { width; words = Array.make ((width + bits_per_word - 1) / bits_per_word) 0 }

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let get t i = t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let copy t = { t with words = Array.copy t.words }

let check_same a b =
  if a.width <> b.width then invalid_arg "Bitset: width mismatch"

let union_into dst src =
  check_same dst src;
  Array.iteri (fun k w -> dst.words.(k) <- dst.words.(k) lor w) src.words

let popcount w =
  let rec loop w acc = if w = 0 then acc else loop (w lsr 1) (acc + (w land 1)) in
  loop w 0

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let union_count a b =
  check_same a b;
  let acc = ref 0 in
  Array.iteri (fun k w -> acc := !acc + popcount (w lor b.words.(k))) a.words;
  !acc

let of_list width bits =
  let t = create width in
  List.iter (set t) bits;
  t

let to_list t =
  let acc = ref [] in
  for i = t.width - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc
