(* Reusable per-thread transaction descriptor storage.

   A transaction's read- and write-set live exactly as long as the
   transaction, and every thread runs at most one transaction at a
   time, so the descriptor can be a per-thread scratch structure that
   is *cleared* at [txn_begin] instead of freshly allocated.  Clearing
   must be O(1), not O(capacity): a generation counter stamps every
   hash slot, and bumping the generation invalidates all slots at
   once.  The TL2 hot loop then allocates nothing per transaction.

   The table is an open-addressing int->int map that additionally
   remembers insertion order in two flat arrays, so the write-set can
   be (a) probed in O(1) on the read-after-write path, (b) iterated in
   insertion order at write-back, and (c) sorted once in place by
   register for deadlock-free lock acquisition — replacing the
   [Hashtbl.fold |> List.sort] done per commit before. *)

type t = {
  mutable keys : int array;  (* insertion order; first [n] entries live *)
  mutable vals : int array;
  mutable n : int;
  mutable slot_idx : int array;  (* hash slot -> index into [keys] *)
  mutable slot_gen : int array;  (* hash slot -> generation that wrote it *)
  mutable gen : int;
  mutable mask : int;  (* [Array.length slot_idx - 1], power of two - 1 *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 8) () =
  let cap = pow2_at_least (max 4 capacity) 4 in
  {
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    n = 0;
    (* twice the entry capacity keeps the load factor at or below 1/2,
       so probe sequences stay short and always terminate *)
    slot_idx = Array.make (2 * cap) 0;
    slot_gen = Array.make (2 * cap) 0;
    gen = 1;
    mask = (2 * cap) - 1;
  }

let length t = t.n
let is_empty t = t.n = 0
let clear t =
  t.gen <- t.gen + 1;
  t.n <- 0

(* Fibonacci hashing; registers are small dense ints, the multiply
   spreads them across the table. *)
let hash k = (k * 0x9E3779B97F4A7C1) lxor (k lsr 12)

(* The probe loops are top-level functions taking the table, key and
   mask as arguments: a local [let rec] capturing them would be a
   closure allocated on every call (flambda is off), and these run on
   every transactional read and write. *)
let rec probe_index t k mask s =
  if t.slot_gen.(s) <> t.gen then -1
  else
    let i = t.slot_idx.(s) in
    if t.keys.(i) = k then i else probe_index t k mask ((s + 1) land mask)

(* Index into [keys] of [k], or -1. *)
let index t k =
  if t.n = 0 then -1 else probe_index t k t.mask (hash k land t.mask)

let mem t k = index t k >= 0
let key t i = t.keys.(i)
let value t i = t.vals.(i)
let find t k ~default = match index t k with -1 -> default | i -> t.vals.(i)

let rec probe_free t mask i s =
  if t.slot_gen.(s) = t.gen then probe_free t mask i ((s + 1) land mask)
  else begin
    t.slot_gen.(s) <- t.gen;
    t.slot_idx.(s) <- i
  end

let place_slot t k i = probe_free t t.mask i (hash k land t.mask)

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0 and vals = Array.make cap 0 in
  Array.blit t.keys 0 keys 0 t.n;
  Array.blit t.vals 0 vals 0 t.n;
  t.keys <- keys;
  t.vals <- vals;
  t.slot_idx <- Array.make (2 * cap) 0;
  t.slot_gen <- Array.make (2 * cap) 0;
  t.mask <- (2 * cap) - 1;
  t.gen <- 1;
  for i = 0 to t.n - 1 do
    place_slot t t.keys.(i) i
  done

let rec set t k v = probe_set t k v t.mask (hash k land t.mask)

and probe_set t k v mask s =
  if t.slot_gen.(s) <> t.gen then
    if t.n = Array.length t.keys then begin
      grow t;
      set t k v
    end
    else begin
      t.slot_gen.(s) <- t.gen;
      t.slot_idx.(s) <- t.n;
      t.keys.(t.n) <- k;
      t.vals.(t.n) <- v;
      t.n <- t.n + 1
    end
  else
    let i = t.slot_idx.(s) in
    if t.keys.(i) = k then t.vals.(i) <- v
    else probe_set t k v mask ((s + 1) land mask)

let add t k = set t k 0

let iter f t =
  for i = 0 to t.n - 1 do
    f t.keys.(i) t.vals.(i)
  done

(* Sort the entries in place by key (keys are distinct).  The slot
   index maps keys to positions, so it is rebuilt after the
   permutation.  Write-sets are small; insertion sort beats the
   allocation and comparison-closure cost of a polymorphic sort. *)
let sort t =
  let keys = t.keys and vals = t.vals in
  for i = 1 to t.n - 1 do
    let k = keys.(i) and v = vals.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      vals.(!j + 1) <- vals.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    vals.(!j + 1) <- v
  done;
  t.gen <- t.gen + 1;
  for i = 0 to t.n - 1 do
    place_slot t keys.(i) i
  done

(* Append-only pair log for undo records (TLRW, the global-lock TM):
   same reuse discipline, rolled back newest-first. *)
module Log = struct
  type t = { mutable xs : int array; mutable ys : int array; mutable n : int }

  let create ?(capacity = 16) () =
    let cap = max 4 capacity in
    { xs = Array.make cap 0; ys = Array.make cap 0; n = 0 }

  let clear l = l.n <- 0
  let length l = l.n

  let push l x y =
    if l.n = Array.length l.xs then begin
      let cap = 2 * l.n in
      let xs = Array.make cap 0 and ys = Array.make cap 0 in
      Array.blit l.xs 0 xs 0 l.n;
      Array.blit l.ys 0 ys 0 l.n;
      l.xs <- xs;
      l.ys <- ys
    end;
    l.xs.(l.n) <- x;
    l.ys.(l.n) <- y;
    l.n <- l.n + 1

  let iter f l =
    for i = 0 to l.n - 1 do
      f l.xs.(i) l.ys.(i)
    done

  let iter_newest_first f l =
    for i = l.n - 1 downto 0 do
      f l.xs.(i) l.ys.(i)
    done
end
