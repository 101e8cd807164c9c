module Make (T : Tm_runtime.Tm_intf.S) = struct
  module AB = Tm_runtime.Atomic_block.Make (T)

  (* Two bump allocators share registers [1..size-1]: [alloc], for use
     outside transactions, grows up from 1 ([next]); [alloc_txn] grows
     down from the top, counting the cells it has handed out in
     register 0 (never a node: pointer 0 is null).  That count is read
     and written transactionally, so an aborted attempt's allocation is
     rolled back with its other writes and the retry reuses the same
     cells.  [high] is the largest count any attempt has reached: each
     side publishes its own bound before reading the other's, so two
     blocks never overlap. *)
  module Heap = struct
    type t = { tm : T.t; next : int Atomic.t; high : int Atomic.t; size : int }

    let count_reg = 0

    let create tm ~size =
      { tm; next = Atomic.make 1; high = Atomic.make 0; size }

    let tm h = h.tm
    let exhausted () = failwith "Tm_data.Heap.alloc: out of registers"

    let alloc h n =
      let base = Atomic.fetch_and_add h.next n in
      if base + n > h.size - Atomic.get h.high then exhausted ();
      base

    let rec raise_high h used =
      let seen = Atomic.get h.high in
      if used > seen && not (Atomic.compare_and_set h.high seen used) then
        raise_high h used

    let alloc_txn h txn n =
      let used = T.read h.tm txn count_reg + n in
      raise_high h used;
      let base = h.size - used in
      if base < Atomic.get h.next then exhausted ();
      T.write h.tm txn count_reg used;
      base

    let in_use h = Atomic.get h.next - 1 + Atomic.get h.high
  end

  module Counter = struct
    type t = { heap : Heap.t; cell : int }

    let make heap = { heap; cell = Heap.alloc heap 1 }

    let add c txn d =
      let v = T.read (Heap.tm c.heap) txn c.cell in
      T.write (Heap.tm c.heap) txn c.cell (v + d)

    let get c txn = T.read (Heap.tm c.heap) txn c.cell
  end

  (* Node layout for stacks and queues: [value; next]. *)
  module Stack = struct
    type t = { heap : Heap.t; top : int }

    let make heap = { heap; top = Heap.alloc heap 1 }

    let push s txn v =
      let tm = Heap.tm s.heap in
      let node = Heap.alloc_txn s.heap txn 2 in
      let old_top = T.read tm txn s.top in
      T.write tm txn node v;
      T.write tm txn (node + 1) old_top;
      T.write tm txn s.top node

    let pop s txn =
      let tm = Heap.tm s.heap in
      let node = T.read tm txn s.top in
      if node = 0 then None
      else begin
        let v = T.read tm txn node in
        T.write tm txn s.top (T.read tm txn (node + 1));
        Some v
      end

    let peek s txn =
      let tm = Heap.tm s.heap in
      let node = T.read tm txn s.top in
      if node = 0 then None else Some (T.read tm txn node)

    let is_empty s txn = T.read (Heap.tm s.heap) txn s.top = 0
  end

  module Queue = struct
    type t = { heap : Heap.t; head : int; tail : int }

    let make heap =
      let head = Heap.alloc heap 2 in
      { heap; head; tail = head + 1 }

    let enqueue q txn v =
      let tm = Heap.tm q.heap in
      let node = Heap.alloc_txn q.heap txn 2 in
      T.write tm txn node v;
      T.write tm txn (node + 1) 0;
      let tail = T.read tm txn q.tail in
      if tail = 0 then begin
        T.write tm txn q.head node;
        T.write tm txn q.tail node
      end
      else begin
        T.write tm txn (tail + 1) node;
        T.write tm txn q.tail node
      end

    let dequeue q txn =
      let tm = Heap.tm q.heap in
      let node = T.read tm txn q.head in
      if node = 0 then None
      else begin
        let v = T.read tm txn node in
        let next = T.read tm txn (node + 1) in
        T.write tm txn q.head next;
        if next = 0 then T.write tm txn q.tail 0;
        Some v
      end

    let is_empty q txn = T.read (Heap.tm q.heap) txn q.head = 0
  end

  (* Chain node layout: [key; value; next]. *)
  module Hashmap = struct
    type t = { heap : Heap.t; buckets : int; base : int; count : int }

    let make heap ~buckets =
      let base = Heap.alloc heap (buckets + 1) in
      { heap; buckets; base; count = base + buckets }

    let bucket_of m key =
      m.base + (key * 2654435761 land max_int mod m.buckets)

    (* Find the node holding [key] in its chain, plus its predecessor
       cell (the register holding the pointer to it). *)
    let find_from tm txn ~pred_cell key =
      let rec go pred_cell node =
        if node = 0 then (pred_cell, 0)
        else
          let k = T.read tm txn node in
          if k = key then (pred_cell, node)
          else go (node + 2) (T.read tm txn (node + 2))
      in
      go pred_cell (T.read tm txn pred_cell)

    let put m txn ~key v =
      let tm = Heap.tm m.heap in
      let bucket = bucket_of m key in
      let _, node = find_from tm txn ~pred_cell:bucket key in
      if node <> 0 then T.write tm txn (node + 1) v
      else begin
        let node = Heap.alloc_txn m.heap txn 3 in
        T.write tm txn node key;
        T.write tm txn (node + 1) v;
        T.write tm txn (node + 2) (T.read tm txn bucket);
        T.write tm txn bucket node;
        Counter.add { Counter.heap = m.heap; Counter.cell = m.count } txn 1
      end

    let get m txn ~key =
      let tm = Heap.tm m.heap in
      let _, node = find_from tm txn ~pred_cell:(bucket_of m key) key in
      if node = 0 then None else Some (T.read tm txn (node + 1))

    let remove m txn ~key =
      let tm = Heap.tm m.heap in
      let pred_cell, node =
        find_from tm txn ~pred_cell:(bucket_of m key) key
      in
      if node = 0 then false
      else begin
        T.write tm txn pred_cell (T.read tm txn (node + 2));
        Counter.add { Counter.heap = m.heap; Counter.cell = m.count } txn (-1);
        true
      end

    let size m txn = T.read (Heap.tm m.heap) txn m.count
  end

  module Private_region = struct
    type t = { heap : Heap.t; flag : int; base : int; size : int }

    let make heap ~size =
      let flag = Heap.alloc heap (size + 1) in
      { heap; flag; base = flag + 1; size }

    let size r = r.size

    let guarded r txn f =
      if T.read (Heap.tm r.heap) txn r.flag <> 0 then None else Some (f ())

    let read r txn i = T.read (Heap.tm r.heap) txn (r.base + i)
    let write r txn i v = T.write (Heap.tm r.heap) txn (r.base + i) v

    let privatize r ~thread =
      let tm = Heap.tm r.heap in
      let (), _retries =
        AB.run tm ~thread (fun txn -> T.write tm txn r.flag 1)
      in
      T.fence tm ~thread

    let publish r ~thread =
      let tm = Heap.tm r.heap in
      let (), _retries =
        AB.run tm ~thread (fun txn -> T.write tm txn r.flag 0)
      in
      ()

    let read_private r ~thread i =
      T.read_nt (Heap.tm r.heap) ~thread (r.base + i)

    let write_private r ~thread i v =
      T.write_nt (Heap.tm r.heap) ~thread (r.base + i) v

    let with_private r ~thread f =
      privatize r ~thread;
      match f () with
      | result ->
          publish r ~thread;
          result
      | exception e ->
          publish r ~thread;
          raise e
  end
end
