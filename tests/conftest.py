"""Shared pytest setup: one deterministic hypothesis profile for the suite,
and stable ids for cases parametrized over group classes.

Property tests draw the same examples on every run, have no per-example
deadline (a slow shared runner must not turn a pass into a flake), and stop
after a bounded number of examples so the suite's run time stays fixed.
"""
from hypothesis import settings

from hspsim import groups

settings.register_profile("hspsim", derandomize=True, deadline=None,
                          max_examples=200)
settings.load_profile("hspsim")

# A case that builds its group from a class keeps the id it has always had
# (e.g. test_associativity[make_psl2-13]), so its results stay comparable
# from run to run.
CASE_IDS = {
    groups.SymmetricGroup: "make_symmetric",
    groups.CyclicGroup: "make_cyclic",
    groups.DihedralGroup: "make_dihedral",
    groups.WreathS2Group: "make_wreath_s2",
    groups.PSL2Group: "make_psl2",
    groups.SL2Group: "make_sl2",
}


def pytest_make_parametrize_id(config, val, argname):
    return CASE_IDS.get(val) if isinstance(val, type) else None
