(* Brent's cycle detection over the items of one walk: [saved] is the
   item reached at the last power-of-two step count, so meeting it again
   means the walk is on a cycle that contains it. *)

type t = { mutable saved : int; mutable power : int; mutable steps : int }

let create () = { saved = 0; power = 1; steps = 0 }

let revisits g item =
  item = g.saved
  || begin
       if g.steps = g.power then begin
         g.saved <- item;
         g.power <- 2 * g.power;
         g.steps <- 0
       end;
       g.steps <- g.steps + 1;
       false
     end
