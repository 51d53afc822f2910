"""The five DNNs of the paper's Table 2, keyed by the names it uses."""

from .densenet121 import densenet121
from .lenet5 import lenet5
from .mobilenetv2 import mobilenetv2
from .resnet50 import resnet50
from .vgg16 import vgg16

MODEL_BUILDERS = {
    "LeNet5": lenet5,
    "ResNet50": resnet50,
    "DenseNet121": densenet121,
    "VGG16": vgg16,
    "MobileNetV2": mobilenetv2,
}
"""Builders keyed by the names Table 2 uses."""
