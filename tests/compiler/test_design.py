"""Unit tests for resource vectors, designs and frequency model."""

import pytest

from repro.compiler import (
    AcceleratorDesign,
    DeviceResources,
    ResourceVector,
    compile_core,
    compose_design,
)
from repro.compiler.frequency import achievable_frequency
from repro.errors import CompilerError, ResourceFitError
from repro.platforms.specs import (
    AWS_F1_PLATFORM,
    F1_CORE_INFRASTRUCTURE,
    VU37P,
    XUPVVH_HBM_PLATFORM,
)
from repro.spn import nips_spn, random_spn


class TestResourceVector:
    def test_addition(self):
        a = ResourceVector(1, 2, 3, 4, 5)
        b = ResourceVector(10, 20, 30, 40, 50)
        total = a + b
        assert total.as_dict() == {
            "luts_logic": 11,
            "luts_mem": 22,
            "registers": 33,
            "bram": 44,
            "dsp": 55,
        }

    def test_scalar_multiplication(self):
        v = 3 * ResourceVector(dsp=2, bram=1)
        assert v.dsp == 6
        assert v.bram == 3

    def test_total(self):
        vs = [ResourceVector(dsp=1)] * 4
        assert ResourceVector.total(vs).dsp == 4


class TestDeviceFit:
    def test_utilisation_fractions(self):
        device = DeviceResources("d", ResourceVector(100, 100, 100, 100, 100))
        util = device.utilisation(ResourceVector(50, 25, 10, 0, 100))
        assert util["luts_logic"] == 0.5
        assert util["dsp"] == 1.0

    def test_fits_respects_limit(self):
        device = DeviceResources("d", ResourceVector(100, 100, 100, 100, 100))
        assert device.fits(ResourceVector(80, 0, 0, 0, 0), max_utilisation=0.85)
        assert not device.fits(ResourceVector(90, 0, 0, 0, 0), max_utilisation=0.85)

    def test_check_fit_names_columns(self):
        device = DeviceResources("d", ResourceVector(100, 100, 100, 100, 100))
        with pytest.raises(ResourceFitError, match="dsp"):
            device.check_fit(ResourceVector(dsp=200))


class TestFrequency:
    def test_small_design_hits_target(self):
        fmax = achievable_frequency(
            320.0, ResourceVector(luts_logic=100_000), VU37P, target_mhz=225.0
        )
        assert fmax == 225.0

    def test_congestion_derates_large_designs(self):
        small = achievable_frequency(320.0, ResourceVector(luts_logic=100_000), VU37P)
        big = achievable_frequency(320.0, ResourceVector(luts_logic=1_000_000), VU37P)
        assert big < small

    def test_soft_controllers_cost_frequency(self):
        used = ResourceVector(luts_logic=400_000)
        without = achievable_frequency(250.0, used, VU37P, soft_memory_controllers=0)
        with_four = achievable_frequency(250.0, used, VU37P, soft_memory_controllers=4)
        assert with_four < without
        # Four controllers cost ~22% (0.94^4).
        assert with_four / without == pytest.approx(0.94**4)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(CompilerError):
            achievable_frequency(0.0, ResourceVector(), VU37P)
        with pytest.raises(CompilerError):
            achievable_frequency(100.0, ResourceVector(), VU37P, soft_memory_controllers=-1)


class TestCompileCore:
    def test_core_has_positive_resources(self):
        core = compile_core(nips_spn("NIPS10"), "cfp")
        assert core.datapath_resources.dsp > 0
        assert core.resources.luts_logic > core.datapath_resources.luts_logic

    def test_pipeline_depth_positive(self):
        core = compile_core(nips_spn("NIPS10"), "cfp")
        assert core.pipeline_depth > 0

    def test_format_changes_costs(self):
        spn = nips_spn("NIPS10")
        cfp = compile_core(spn, "cfp")
        f64 = compile_core(spn, "float64")
        assert f64.datapath_resources.dsp > cfp.datapath_resources.dsp
        assert f64.pipeline_depth > cfp.pipeline_depth


class TestComposeDesign:
    def test_resources_scale_with_cores(self):
        core = compile_core(nips_spn("NIPS10"), "cfp")
        one = compose_design(core, 1, XUPVVH_HBM_PLATFORM)
        four = compose_design(core, 4, XUPVVH_HBM_PLATFORM)
        per_core = core.resources.dsp
        assert four.total_resources.dsp - one.total_resources.dsp == pytest.approx(
            3 * per_core
        )

    def test_hbm_design_runs_at_225(self):
        core = compile_core(nips_spn("NIPS40"), "cfp")
        design = compose_design(core, 4, XUPVVH_HBM_PLATFORM)
        assert design.clock_mhz == 225.0
        assert design.samples_per_second_per_core == 225e6

    def test_nips80_fits_eight_cores_on_hbm_but_not_f1(self):
        """The paper's headline capacity claim: 8 NIPS80 cores on the
        VU37P versus 2 on the F1 (§V-A)."""
        hbm_core = compile_core(nips_spn("NIPS80"), "cfp")
        compose_design(hbm_core, 8, XUPVVH_HBM_PLATFORM)  # must fit
        f1_core = compile_core(
            nips_spn("NIPS80"), "float64", core_infrastructure=F1_CORE_INFRASTRUCTURE
        )
        compose_design(f1_core, 2, AWS_F1_PLATFORM)  # fits
        with pytest.raises(ResourceFitError):
            compose_design(f1_core, 4, AWS_F1_PLATFORM)

    def test_soft_controllers_slow_f1_clock(self):
        core = compile_core(
            nips_spn("NIPS10"), "float64", core_infrastructure=F1_CORE_INFRASTRUCTURE
        )
        design = compose_design(core, 2, AWS_F1_PLATFORM)
        assert design.clock_mhz == achievable_frequency(
            core.library.nominal_fmax_mhz,
            design.total_resources,
            AWS_F1_PLATFORM.device,
            soft_memory_controllers=2,
            target_mhz=AWS_F1_PLATFORM.target_clock_mhz,
        )

    def test_invalid_core_count_rejected(self):
        core = compile_core(nips_spn("NIPS10"), "cfp")
        with pytest.raises(CompilerError):
            compose_design(core, 0, XUPVVH_HBM_PLATFORM)

    def test_design_name(self):
        core = compile_core(nips_spn("NIPS20"), "cfp")
        design = compose_design(core, 4, XUPVVH_HBM_PLATFORM)
        assert design.name == "NIPS20x4"


class TestTableOneShape:
    """The qualitative Table I findings must hold in the model."""

    def test_new_uses_fewer_resources_overall(self):
        for name in ("NIPS10", "NIPS40"):
            spn = nips_spn(name)
            new = compose_design(compile_core(spn, "cfp"), 4, XUPVVH_HBM_PLATFORM)
            old = compose_design(
                compile_core(
                    spn, "float64", core_infrastructure=F1_CORE_INFRASTRUCTURE
                ),
                4,
                AWS_F1_PLATFORM,
            )
            assert new.total_resources.luts_logic < old.total_resources.luts_logic
            assert new.total_resources.registers < old.total_resources.registers
            assert new.total_resources.bram < old.total_resources.bram
            assert new.total_resources.dsp < old.total_resources.dsp

    def test_dsp_ratio_roughly_three(self):
        spn = nips_spn("NIPS40")
        new = compose_design(compile_core(spn, "cfp"), 4, XUPVVH_HBM_PLATFORM)
        old = compose_design(
            compile_core(spn, "float64", core_infrastructure=F1_CORE_INFRASTRUCTURE),
            4,
            AWS_F1_PLATFORM,
        )
        ratio = old.total_resources.dsp / new.total_resources.dsp
        assert 2.5 < ratio < 3.5

    def test_old_design_uses_fewer_lut_mem(self):
        """Paper: "the accelerators used in [8] generally require fewer
        LUTs used as Memory"."""
        spn = nips_spn("NIPS10")
        new = compose_design(compile_core(spn, "cfp"), 4, XUPVVH_HBM_PLATFORM)
        old = compose_design(
            compile_core(spn, "float64", core_infrastructure=F1_CORE_INFRASTRUCTURE),
            4,
            AWS_F1_PLATFORM,
        )
        assert old.total_resources.luts_mem < new.total_resources.luts_mem
