(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> nan
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least [p] of all samples at
   or below it. *)
let percentile p = function
  | [] -> nan
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      let k = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
