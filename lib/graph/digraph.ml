type t = { n : int; m : int; adj : int array array }

let of_edges ~n edges =
  if n < 0 then invalid_arg "Digraph.of_edges: negative n";
  let check v = if v < 0 || v >= n then invalid_arg "Digraph.of_edges: endpoint out of range" in
  let buckets = Array.make n [] in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      buckets.(u) <- v :: buckets.(u))
    edges;
  let m = ref 0 in
  let adj =
    Array.map
      (fun l ->
        let a = Array.of_list (List.sort_uniq Int.compare l) in
        m := !m + Array.length a;
        a)
      buckets
  in
  { n; m = !m; adj }

let n t = t.n
let m t = t.m
let successors t v = t.adj.(v)

let mem_arc t u v =
  let a = t.adj.(u) in
  let i = Row_sort.lower_bound a 0 (Array.length a) v in
  i < Array.length a && a.(i) = v

(* Iterative Tarjan: an explicit frame stack of (node, next-successor
   index) replaces recursion so deep digraphs cannot blow the OCaml
   stack. *)
let scc t =
  let n = t.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Stack.create () in
  let comp = Array.make n (-1) in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    Stack.push v stack;
    on_stack.(v) <- true
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let frames = Stack.create () in
      visit root;
      Stack.push (root, 0) frames;
      while not (Stack.is_empty frames) do
        let v, i = Stack.pop frames in
        let succs = t.adj.(v) in
        if i < Array.length succs then begin
          let w = succs.(i) in
          Stack.push (v, i + 1) frames;
          if index.(w) < 0 then begin
            visit w;
            Stack.push (w, 0) frames
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let rec pop_component () =
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w <> v then pop_component ()
            in
            pop_component ();
            incr next_comp
          end;
          match Stack.top_opt frames with
          | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          | None -> ()
        end
      done
    end
  done;
  (comp, !next_comp)

let is_strongly_connected t = t.n <= 1 || snd (scc t) = 1

let reverse t =
  let edges = ref [] in
  Array.iteri (fun u succs -> Array.iter (fun v -> edges := (v, u) :: !edges) succs) t.adj;
  of_edges ~n:t.n !edges

let pp fmt t =
  for v = 0 to t.n - 1 do
    Format.fprintf fmt "%d ->" v;
    Array.iter (fun u -> Format.fprintf fmt " %d" u) t.adj.(v);
    Format.pp_print_newline fmt ()
  done
