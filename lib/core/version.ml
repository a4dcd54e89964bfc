let current = "1.21.0"
