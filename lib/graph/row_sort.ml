let swap (a : int array) i j =
  let tmp = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- tmp

(* Sifts [root] down the heap [a.(lo) .. a.(lo + len - 1)]: top-level, so
   the heapsort allocates no closure over [a] and [lo]. *)
let rec sift (a : int array) lo root len =
  let l = (2 * root) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
    if a.(lo + c) > a.(lo + root) then begin
      swap a (lo + c) (lo + root);
      sift a lo c len
    end
  end

(* In-place sort of [a.(lo) .. a.(hi - 1)], shared by every CSR builder:
   insertion sort for rows of up to 64 entries, heapsort above that.
   Rows are short and arrive nearly sorted (a unit-disk row is a merge of
   at most nine ascending runs, one per cell), and insertion sort costs
   one move per inversion; heapsort caps the worst case of a dense row at
   O(len log len). *)
let sort_range (a : int array) lo hi =
  let len = hi - lo in
  if len > 1 then begin
    if len <= 64 then
      for i = lo + 1 to hi - 1 do
        let x = Array.unsafe_get a i in
        let j = ref (i - 1) in
        while !j >= lo && Array.unsafe_get a !j > x do
          Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
          decr j
        done;
        Array.unsafe_set a (!j + 1) x
      done
    else begin
      for root = (len - 2) / 2 downto 0 do
        sift a lo root len
      done;
      for last = len - 1 downto 1 do
        swap a lo (lo + last);
        sift a lo 0 last
      done
    end
  end

(* Binary search over a sorted range: top-level and recursive on plain
   ints, so a call allocates nothing. *)
let rec lower_bound (a : int array) lo hi x =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get a mid < x then lower_bound a (mid + 1) hi x else lower_bound a lo mid x
  end
