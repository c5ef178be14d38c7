import hup_lab
from hup_lab import classifier, config, curves, errors, linsys, measures, sympoly

MODULES = (classifier, config, curves, errors, linsys, measures, sympoly)


def test_package_exports_the_union_of_the_module_lists():
    union = set().union(*(m.__all__ for m in MODULES))
    assert sorted(hup_lab.__all__) == sorted(union)
    assert len(hup_lab.__all__) == len(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hup_lab, name) is getattr(module, name)
