(* Bitset adjacency matrix: row i is [words] ints, bit j of row i set
   iff (i, j) is in the relation.  Rows are stored back to back in flat
   blocks of at most [block_words] ints, so that no block exceeds the
   minor heap's largest allocation: a relation over a recorded history
   (500 actions: 4.5k words) is 18 young blocks, not one block the
   major heap must allocate and free by itself. *)

type t = { n : int; words : int; per_block : int; blocks : int array array }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)
let block_words = 256 (* Max_young_wosize *)

let create n =
  let words = if n = 0 then 0 else ((n - 1) / bits_per_word) + 1 in
  let per_block = if words = 0 then 1 else max 1 (block_words / words) in
  let blocks =
    Array.init
      ((n + per_block - 1) / per_block)
      (fun b -> Array.make (min per_block (n - (b * per_block)) * words) 0)
  in
  { n; words; per_block; blocks }

let size r = r.n

(* The block holding row [i], and the row's offset in it. *)
let block r i = r.blocks.(i / r.per_block)
let base r i = i mod r.per_block * r.words

let add r i j =
  let b = block r i and w = base r i + (j / bits_per_word) in
  b.(w) <- b.(w) lor (1 lsl (j mod bits_per_word))

let mem r i j =
  (block r i).(base r i + (j / bits_per_word)) land (1 lsl (j mod bits_per_word))
  <> 0

let of_pred n p =
  let r = create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if p i j then add r i j
    done
  done;
  r

let copy r = { r with blocks = Array.map Array.copy r.blocks }

let union_into ~dst r =
  assert (dst.n = r.n);
  Array.iteri
    (fun b src ->
      let d = dst.blocks.(b) in
      for w = 0 to Array.length src - 1 do
        d.(w) <- d.(w) lor src.(w)
      done)
    r.blocks

let union a b =
  let r = copy a in
  union_into ~dst:r b;
  r

(* Index of the single set bit of [b]: 2 is a primitive root modulo 67,
   so [2^k mod 67] is distinct for every k < 66.  [lsr 1] keeps the top
   bit's power of two positive; bit 0 maps to 0, which no power hits. *)
let bit_index_table =
  let t = Array.make 67 0 in
  for k = 1 to bits_per_word - 1 do
    t.((1 lsl (k - 1)) mod 67) <- k
  done;
  t

let bit_index b = Array.unsafe_get bit_index_table ((b lsr 1) mod 67)

(* [f] on every set bit of [words] ints of [a] from offset [off]. *)
let iter_bits a off words f =
  for w = 0 to words - 1 do
    let bits = ref a.(off + w) in
    while !bits <> 0 do
      let b = !bits land - !bits in
      f ((w * bits_per_word) + bit_index b);
      bits := !bits lxor b
    done
  done

let iter_succ r i f = iter_bits (block r i) (base r i) r.words f

(* [dst.(d + w) <- dst.(d + w) lor src.(s + w)] for the words at and
   after the one holding bit [from]. *)
let or_words ~dst d src s ~from words =
  for w = from / bits_per_word to words - 1 do
    dst.(d + w) <- dst.(d + w) lor src.(s + w)
  done

let compose a b =
  assert (a.n = b.n);
  let r = create a.n in
  for i = 0 to a.n - 1 do
    iter_succ a i (fun j ->
        or_words ~dst:(block r i) (base r i) (block b j) (base b j) ~from:0
          b.words)
  done;
  r

(* Every pair (i, j) has i < j: the relation is a DAG in index order. *)
let is_forward r =
  let ok = ref true and i = ref 0 in
  while !ok && !i < r.n do
    let row = block r !i and off = base r !i and wi = !i / bits_per_word in
    for w = 0 to wi - 1 do
      if row.(off + w) <> 0 then ok := false
    done;
    (* bits 0..i of word wi, relative to the word *)
    let upto = (!i mod bits_per_word) + 1 in
    let low = if upto >= bits_per_word then -1 else (1 lsl upto) - 1 in
    if row.(off + wi) land low <> 0 then ok := false;
    incr i
  done;
  !ok

(* Closure of a forward relation in one reverse pass: once every row
   after i is closed, row i is its own successors plus their rows.  A
   successor already reached through an earlier one adds nothing. *)
let close_forward r =
  let words = r.words in
  let own = Array.make words 0 and reach = Array.make words 0 in
  for i = r.n - 2 downto 0 do
    Array.blit (block r i) (base r i) own 0 words;
    Array.fill reach 0 words 0;
    iter_bits own 0 words (fun j ->
        if reach.(j / bits_per_word) land (1 lsl (j mod bits_per_word)) = 0
        then or_words ~dst:reach 0 (block r j) (base r j) ~from:j words);
    or_words ~dst:(block r i) (base r i) reach 0 ~from:i words
  done

(* Warshall with bitset rows: if i reaches k, i also reaches all
   successors of k. *)
let close_warshall r =
  let words = r.words in
  for k = 0 to r.n - 1 do
    let kw = k / bits_per_word and kb = 1 lsl (k mod bits_per_word) in
    for i = 0 to r.n - 1 do
      if (block r i).(base r i + kw) land kb <> 0 then
        or_words ~dst:(block r i) (base r i) (block r k) (base r k) ~from:0
          words
    done
  done

let close_into r = if is_forward r then close_forward r else close_warshall r

let transitive_closure r =
  let c = copy r in
  close_into c;
  c

let is_irreflexive r =
  let rec go i = i >= r.n || ((not (mem r i i)) && go (i + 1)) in
  go 0

(* Early-exit cycle check: iterative three-colour DFS straight over the
   bitset rows.  O(n + edges) and no closure materialization, against
   the O(n³) Warshall route; bails out on the first back edge. *)
let is_acyclic r =
  let n = r.n in
  if n = 0 || r.words = 0 then true
  else begin
    (* 0 = unvisited, 1 = on the DFS stack, 2 = finished *)
    let color = Array.make n 0 in
    (* explicit stack: node, current word index, remaining bits of it *)
    let node_st = Array.make n 0 in
    let word_st = Array.make n 0 in
    let bits_st = Array.make n 0 in
    let cyclic = ref false in
    let root = ref 0 in
    while (not !cyclic) && !root < n do
      if color.(!root) = 0 then begin
        let sp = ref 0 in
        let push v =
          color.(v) <- 1;
          node_st.(!sp) <- v;
          word_st.(!sp) <- 0;
          bits_st.(!sp) <- (block r v).(base r v);
          incr sp
        in
        push !root;
        while (not !cyclic) && !sp > 0 do
          let top = !sp - 1 in
          let v = node_st.(top) in
          let w = ref word_st.(top) in
          let bits = ref bits_st.(top) in
          while !bits = 0 && !w + 1 < r.words do
            incr w;
            bits := (block r v).(base r v + !w)
          done;
          if !bits = 0 then begin
            color.(v) <- 2;
            decr sp
          end
          else begin
            let b = !bits land - !bits in
            word_st.(top) <- !w;
            bits_st.(top) <- !bits lxor b;
            let j = (!w * bits_per_word) + bit_index b in
            match color.(j) with
            | 0 -> push j
            | 1 -> cyclic := true
            | _ -> ()
          end
        done
      end;
      incr root
    done;
    not !cyclic
  end

let reachable r i j =
  let n = r.n in
  if n = 0 || r.words = 0 then false
  else begin
    let jw = j / bits_per_word and jb = 1 lsl (j mod bits_per_word) in
    let visited = Array.make r.words 0 in
    let work = Array.make n 0 in
    let sp = ref 0 in
    let found = ref false in
    (* enqueue v's unvisited successors; detect j in v's row directly *)
    let expand v =
      let row = block r v and off = base r v in
      if row.(off + jw) land jb <> 0 then found := true
      else
        for w = 0 to r.words - 1 do
          let fresh = row.(off + w) land lnot visited.(w) in
          if fresh <> 0 then begin
            visited.(w) <- visited.(w) lor fresh;
            let bits = ref fresh in
            while !bits <> 0 do
              let b = !bits land - !bits in
              work.(!sp) <- (w * bits_per_word) + bit_index b;
              incr sp;
              bits := !bits lxor b
            done
          end
        done
    in
    expand i;
    while (not !found) && !sp > 0 do
      decr sp;
      expand work.(!sp)
    done;
    !found
  end

let map r ~size f =
  let m = create size in
  (* the rows with each image, so each image row's bits are walked once
     however many rows map onto it *)
  let members = Array.make size [] in
  for i = r.n - 1 downto 0 do
    let fi = f i in
    if fi >= 0 then members.(fi) <- i :: members.(fi)
  done;
  let row = Array.make r.words 0 in
  Array.iteri
    (fun fi rows ->
      Array.fill row 0 r.words 0;
      List.iter
        (fun i -> or_words ~dst:row 0 (block r i) (base r i) ~from:0 r.words)
        rows;
      iter_bits row 0 r.words (fun j ->
          let fj = f j in
          if fj >= 0 && fj <> fi then add m fi fj))
    members;
  m

let respects_order r order =
  (* Place the elements in order: none may follow one of its own
     successors. *)
  let placed = Array.make r.words 0 in
  let ok = ref true and p = ref 0 in
  while !ok && !p < Array.length order do
    let i = order.(!p) in
    let row = block r i and off = base r i in
    for w = 0 to r.words - 1 do
      if row.(off + w) land placed.(w) <> 0 then ok := false
    done;
    placed.(i / bits_per_word) <-
      placed.(i / bits_per_word) lor (1 lsl (i mod bits_per_word));
    incr p
  done;
  !ok

let iter_pairs r f =
  for i = 0 to r.n - 1 do
    iter_succ r i (fun j -> f i j)
  done

let fold_pairs r f init =
  let acc = ref init in
  iter_pairs r (fun i j -> acc := f !acc i j);
  !acc

let pairs r = List.rev (fold_pairs r (fun acc i j -> (i, j) :: acc) [])
let cardinal r = fold_pairs r (fun acc _ _ -> acc + 1) 0

let successors r i =
  let acc = ref [] in
  iter_succ r i (fun j -> acc := j :: !acc);
  List.rev !acc

let topological_sort r =
  let indegree = Array.make r.n 0 in
  iter_pairs r (fun _ j -> indegree.(j) <- indegree.(j) + 1);
  let queue = Queue.create () in
  for i = 0 to r.n - 1 do
    if indegree.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    incr count;
    iter_succ r i (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Queue.add j queue)
  done;
  if !count = r.n then Some (List.rev !order) else None

let equal a b = a.n = b.n && a.blocks = b.blocks

let pp ppf r =
  Format.fprintf ppf "@[<hov 1>{";
  let first = ref true in
  iter_pairs r (fun i j ->
      if !first then first := false else Format.fprintf ppf ";@ ";
      Format.fprintf ppf "(%d,%d)" i j);
  Format.fprintf ppf "}@]"
