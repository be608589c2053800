include Engine
module Core_solution = Core_solution
module Implication = Implication
