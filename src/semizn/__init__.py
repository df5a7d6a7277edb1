"""Exact decision procedures for semigroup problems (Group, Identity,
Inverse) in groups of the form Y x| Z^n, with Y a finitely presented module
over the integer Laurent ring, plus a front-end for finite metabelian
presentations."""

from semizn.algebra import (LaurentSubmodule, ModuleElement, ModulePresentation,
                            SyzygyBasis, residual, syzygy_basis)
from semizn.closure import ClosureResult, eulerian_closure
from semizn.decide import (Budget, Verdict, decide_group, decide_identity,
                           decide_inverse, verify_witness)
from semizn.geometry import LatticePolytope, convex_hull, is_face_accessible, refined_fan
from semizn.ggraph import StepGraph, graph_of_word
from semizn.group import (GeneratorSet, GroupElement, MetabelianPresentation,
                          evaluate_word, magnus_frontend, neutral)
from semizn.laurent import LaurentPoly
from semizn.positions import check_escape_condition, graph_from_positions, position_polynomials

__version__ = "0.1.0"
