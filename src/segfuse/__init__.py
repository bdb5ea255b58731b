"""segfuse: ensemble pseudo-label fusion for semantic segmentation.

Unifies an arbitrary ensemble of teacher predictions into hard pseudo
labels, fuses them per pixel (majority vote) or per class channel under a
fusion policy with windowed conflict resolution, selects policies without
target ground truth via distilled-student certainty, and distills the
fused labels into a toy per-pixel student.
"""

from .core import (
    UNLABELED_ID,
    FeatureMap,
    FusionPolicy,
    IoUReport,
    LabelMap,
    ProbMap,
)
from .distill import (
    ToyStudent,
    TrainConfig,
    average_fuse,
    ce_loss_and_grads,
    kl_loss_and_grads,
    measure_teacher,
    student_labels,
    train_student,
)
from .fusion import (
    build_channel_sets,
    channel_fuse,
    pixel_fuse,
)
from .metrics import (
    certainty_histogram,
    certainty_iou_cosine,
    dataset_iou,
)
from .policy import select_certainty, select_oracle, select_random
from .propositions import (
    check_prop1,
    check_prop2,
    gen_prop1_instance,
    gen_prop2_instance,
)
from .synth import (
    Benchmark,
    BenchmarkConfig,
    corrupt_teacher,
    gen_ground_truth,
    make_benchmark,
    make_underperformer_maps,
    soften,
)
from .unify import unify

__version__ = "0.1.0"
