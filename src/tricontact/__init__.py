"""Rigid-body contact detection for triangulated particles.

Hybrid triangle-distance kernels, conservative surrogate-triangle
hierarchies, and explicit/implicit time stepping with multiscale contact
detection, plus a benchmark CLI that reports algorithmic work counters.
"""

from .geometry import RigidMotion
from .kernels import KernelCounters, KernelParams, Kind, gradient_of_J
from .contact import (Contacts, ForceModelParams, MassProperties,
                      contact_force, mass_properties_from_mesh, merge_contacts)
from .surrogate import (SurrogateTree, build_surrogate_tree,
                        cluster_triangles, conservative_epsilon,
                        validate_conservative)
from .scenes import SceneSpec, build_scene, generate_noisy_sphere
from .stepping import (PicardDiverged, StepConfig, System, explicit_step,
                       implicit_step, multiscale_contacts, single_level_contacts,
                       step, system_from_scene)

__version__ = "0.1.0"
