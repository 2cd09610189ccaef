"""Symbolic engine for the Cartan constraint algorithm on variational problems.

Build a Lepage-equivalent restricted Hamiltonian system from a variational
problem in bundle coordinates, derive the Hamilton Pfaffian on the Grassmann
bundle, and iterate zero-form restriction, torsion absorption, Cartan's
involutivity test and prolongation until an involutive system is reached.
"""

from .scalars import (Chart, Dependent, LinearSolveResult, NonLinearInUnknowns,
                      Scalar, solve_linear, random_rank)
from .exterior import Form, Substitution, volume_form
from .pfaffian import (CharacterVector, EmptyLocus, InvolutivityReport,
                       PfaffianSystem, StructureEquations, cartan_characters,
                       cartan_test, essential_torsion, make_system, prolong,
                       prolongation_dim, restrict, structure_equations)
from .hamilton import (DegreeMismatch, HamiltonLocus, LepageSpace,
                       MissingJetStructure, VariationalProblem,
                       build_lepage_classical, build_lepage_explicit,
                       build_lepage_griffiths, contact_forms, grassmann_extend,
                       hamilton_equations, residual_check, solve_hamilton_locus)
from .ladder import (ConstraintLadder, LadderStep, NeedsUserBranch,
                     classify_constraint, run, run_system)
from .problems import ParseError, ProblemDocument, parse_problem
from .report import ReportDocument, analyze, emit

__version__ = "0.1.0"
